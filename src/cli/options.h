/**
 * @file
 * A small declarative command-line option parser used by the cidre_sim
 * tool (and available to downstream binaries).
 *
 * Deliberately tiny: long options only (`--name value` or `--flag`),
 * typed accessors with defaults, strict unknown-option rejection, and
 * generated usage text.  No external dependencies.
 */

#ifndef CIDRE_CLI_OPTIONS_H
#define CIDRE_CLI_OPTIONS_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cidre::cli {

/** Declaration of one accepted option. */
struct OptionSpec
{
    std::string name;        //!< without the leading "--"
    std::string value_hint;  //!< empty ⇒ boolean flag
    std::string help;
    std::string default_text; //!< shown in usage; not auto-applied
};

/** Parsed command line: positionals plus option values. */
class Options
{
  public:
    /**
     * Parse @p argv against @p specs.
     * @throws std::invalid_argument on unknown options, missing values,
     *         or malformed numbers at typed access time.
     */
    static Options parse(int argc, const char *const *argv,
                         const std::vector<OptionSpec> &specs);

    bool has(const std::string &name) const;

    /** String value; @p fallback when absent. */
    std::string getString(const std::string &name,
                          const std::string &fallback = "") const;

    /** Numeric accessors; throw std::invalid_argument on bad numbers. */
    double getDouble(const std::string &name, double fallback) const;
    std::int64_t getInt(const std::string &name,
                        std::int64_t fallback) const;

    /**
     * A count option (threads, workers, requests, ...): an integer in
     * [@p min, @p max], @p fallback when absent.  Out-of-range values
     * throw std::invalid_argument like a malformed integer, so a
     * negative count can never wrap into a huge unsigned one.
     */
    std::uint64_t getCount(const std::string &name, std::uint64_t fallback,
                           std::uint64_t min, std::uint64_t max) const;

    /** Boolean flag presence. */
    bool getFlag(const std::string &name) const { return has(name); }

    /** Comma-separated list value. */
    std::vector<std::string> getList(const std::string &name) const;

    const std::vector<std::string> &positionals() const
    {
        return positionals_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positionals_;
};

/** Render a usage block for @p specs. */
std::string usageText(const std::string &program,
                      const std::string &synopsis,
                      const std::vector<OptionSpec> &specs);

} // namespace cidre::cli

#endif // CIDRE_CLI_OPTIONS_H
