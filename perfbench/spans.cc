#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

namespace perfbench {

double
hostSeconds()
{
    // FMLINT(allow:no-wall-clock): benchmark host timing; never feeds
    // plan content or simulated results.
    static const auto origin = std::chrono::steady_clock::now();
    // FMLINT(allow:no-wall-clock): same host-timing clock as above.
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - origin).count();
}

int
SpanRecorder::open(const std::string &name, int pass)
{
    Span s;
    s.name = name;
    s.pass = pass;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = hostSeconds();
    s.end = s.start;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanRecorder::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = hostSeconds();
    // Phases nest strictly (RAII), so the closing span is the innermost.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const auto &s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);

    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals, clipped to the parent.
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (auto [a, b] : kids) {
            a = std::max(a, spans_[i].start);
            b = std::min(b, spans_[i].end);
            if (b <= a)
                continue;
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += std::max(0.0, hi - lo);
        self[i] = (spans_[i].end - spans_[i].start) - covered;
    }
    return self;
}

void
SpanRecorder::writeJson(std::ostream &os) const
{
    auto self = selfTimes();
    os << "[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        std::snprintf(buf, sizeof(buf),
                      "  {\"name\": \"%s\", \"pass\": %d, \"parent\": %d, "
                      "\"start_s\": %.9f, \"end_s\": %.9f, "
                      "\"self_s\": %.9f}%s\n",
                      s.name.c_str(), s.pass, s.parent, s.start, s.end,
                      self[i], i + 1 < spans_.size() ? "," : "");
        os << buf;
    }
    os << "]\n";
}

Phase::Phase(SpanRecorder *recorder, const std::string &name, int pass)
    : recorder_(recorder)
{
    if (recorder_)
        id_ = recorder_->open(name, pass);
    start_ = hostSeconds();
}

double
Phase::stop()
{
    if (seconds_ < 0.0) {
        seconds_ = hostSeconds() - start_;
        if (recorder_)
            recorder_->close(id_);
    }
    return seconds_;
}

} // namespace perfbench
