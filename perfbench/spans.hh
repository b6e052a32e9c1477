/**
 * @file
 * Host-time spans recorded by the benchmark around the library calls it
 * makes. The library's own tracing layer (src/obs/) runs on simulated
 * time only and may not read wall clocks, so host timing lives here.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on a monotonic host clock. */
double hostSeconds();

/** One timed interval: a layer boundary crossed by the benchmark. */
struct Span
{
    std::string name;
    /** Pass (or set-up repetition) the span belongs to; spans of one
     * pass share it. Set-up repetitions use negative ids. */
    int pass = 0;
    /** Index of the enclosing span in SpanRecorder::spans(), or -1. */
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
};

/** Keeps spans in memory until the benchmark writes them out. */
class SpanRecorder
{
  public:
    int open(const std::string &name, int pass);
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span: its duration minus the part of it that child spans
     * cover. */
    std::vector<double> selfTimes() const;

    /** JSON array of {name, pass, parent, start_s, end_s, self_s}. */
    void writeJson(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Times one phase with the host clock, and records it as a span when a
 * recorder is attached (untraced runs pass nullptr and pay nothing but
 * the two clock reads).
 */
class Phase
{
  public:
    Phase(SpanRecorder *recorder, const std::string &name, int pass);
    ~Phase() { stop(); }
    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

    /** Ends the phase (once) and returns its duration in seconds. */
    double stop();

  private:
    SpanRecorder *recorder_;
    int id_ = -1;
    double start_ = 0.0;
    double seconds_ = -1.0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
