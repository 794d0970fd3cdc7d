#include "spans.h"

namespace perfbench {

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::int64_t
SpanLog::begin(std::string name, std::int64_t parent)
{
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), parent, start, -1});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
SpanLog::end(std::int64_t id)
{
    const std::int64_t stop = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end_ns = stop;
}

void
SpanLog::write(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
            << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << "}";
    }
    out << "\n]\n";
}

} // namespace perfbench
