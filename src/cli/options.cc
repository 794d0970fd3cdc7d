#include "cli/options.h"

#include <sstream>
#include <stdexcept>
#include <string>

namespace cidre::cli {

Options
Options::parse(int argc, const char *const *argv,
               const std::vector<OptionSpec> &specs)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            options.positionals_.push_back(arg);
            continue;
        }
        const std::string name = arg.substr(2);
        const OptionSpec *spec = nullptr;
        for (const auto &candidate : specs) {
            if (candidate.name == name) {
                spec = &candidate;
                break;
            }
        }
        if (spec == nullptr)
            throw std::invalid_argument("unknown option --" + name);
        if (spec->value_hint.empty()) {
            options.values_[name] = "true";
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for --" + name);
        options.values_[name] = argv[++i];
    }
    return options;
}

bool
Options::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Options::getString(const std::string &name,
                   const std::string &fallback) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

double
Options::getDouble(const std::string &name, double fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    std::size_t used = 0;
    double value = 0.0;
    try {
        value = std::stod(it->second, &used);
    } catch (const std::logic_error &) {
        used = 0;
    }
    if (used == 0 || used != it->second.size())
        throw std::invalid_argument("bad number for --" + name + ": '" +
                                    it->second + "'");
    return value;
}

std::int64_t
Options::getInt(const std::string &name, std::int64_t fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    std::size_t used = 0;
    std::int64_t value = 0;
    try {
        value = std::stoll(it->second, &used);
    } catch (const std::logic_error &) {
        used = 0;
    }
    if (used == 0 || used != it->second.size())
        throw std::invalid_argument("bad integer for --" + name + ": '" +
                                    it->second + "'");
    return value;
}

std::uint64_t
Options::getCount(const std::string &name, std::uint64_t fallback,
                  std::uint64_t min, std::uint64_t max) const
{
    if (!has(name))
        return fallback;
    const std::int64_t value = getInt(name, 0);
    if (value < 0 || static_cast<std::uint64_t>(value) < min ||
        static_cast<std::uint64_t>(value) > max) {
        throw std::invalid_argument(
            "bad integer for --" + name + ": '" + getString(name) +
            "' (must be in [" + std::to_string(min) + ", " +
            std::to_string(max) + "])");
    }
    return static_cast<std::uint64_t>(value);
}

std::vector<std::string>
Options::getList(const std::string &name) const
{
    std::vector<std::string> items;
    const auto it = values_.find(name);
    if (it == values_.end())
        return items;
    std::string item;
    for (const char ch : it->second) {
        if (ch == ',') {
            if (!item.empty())
                items.push_back(item);
            item.clear();
        } else {
            item += ch;
        }
    }
    if (!item.empty())
        items.push_back(item);
    return items;
}

std::string
usageText(const std::string &program, const std::string &synopsis,
          const std::vector<OptionSpec> &specs)
{
    std::ostringstream out;
    out << "usage: " << program << " " << synopsis << "\n\noptions:\n";
    for (const auto &spec : specs) {
        std::string left = "  --" + spec.name;
        if (!spec.value_hint.empty())
            left += " <" + spec.value_hint + ">";
        out << left;
        for (std::size_t pad = left.size(); pad < 28; ++pad)
            out << ' ';
        out << spec.help;
        if (!spec.default_text.empty())
            out << " (default: " << spec.default_text << ")";
        out << '\n';
    }
    return out.str();
}

} // namespace cidre::cli
