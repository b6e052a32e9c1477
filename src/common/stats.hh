/**
 * @file
 * Lightweight statistics accumulators used by the simulator, profiler and
 * benchmark reporting (mean/min/max/stddev, geometric mean, time-weighted
 * averages for memory traces).
 */

#ifndef FLASHMEM_COMMON_STATS_HH
#define FLASHMEM_COMMON_STATS_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace flashmem {

/** Streaming scalar accumulator (Welford). */
class RunningStat
{
  public:
    void add(double x);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;
    double sum() const { return sum_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** Geometric mean of strictly positive values; ignores non-positive. */
double geomean(const std::vector<double> &values);

/**
 * Streaming quantile estimator (the P² algorithm, Jain & Chlamtac,
 * CACM 1985): tracks one quantile of an unbounded observation stream
 * in O(1) memory by maintaining five markers whose heights are
 * adjusted with a piecewise-parabolic fit.
 *
 * Exact for the first five observations (they are kept verbatim);
 * afterwards the estimate converges to the true quantile as the stream
 * grows. Purely arithmetic on the observation sequence, so the
 * estimate is bit-deterministic for a given input order — the property
 * the serving harness's cross-thread-count determinism checks rely on.
 */
class P2Quantile
{
  public:
    /** @param quantile target in (0, 1), e.g. 0.99 for p99. */
    explicit P2Quantile(double quantile);

    void add(double x);

    /** Current estimate; nearest-rank over the stored observations
     * while fewer than five have been seen (0 when empty). */
    double value() const;

    std::size_t count() const { return n_; }
    double quantile() const { return p_; }

  private:
    double p_;
    std::size_t n_ = 0;
    double q_[5] = {};      ///< marker heights
    double pos_[5] = {};    ///< marker positions (1-based counts)
    double desired_[5] = {};///< desired marker positions
    double rate_[5] = {};   ///< desired-position increment per add()
};

/**
 * Step-function time series, e.g. bytes of live memory over simulated
 * time. Samples must be appended in non-decreasing time order; record()
 * asserts it and collapses equal timestamps, so the stored points are
 * strictly time-ordered. The windowed queries rely on that order: each
 * binary-searches its first point and then walks only the points inside
 * its window, so a query costs O(log n + points in the window) however
 * long the series has grown.
 */
class TimeSeries
{
  public:
    struct Point
    {
        SimTime time = 0;
        double value = 0.0;
    };

    /** Record that the series holds @p value from @p time onwards. */
    void record(SimTime time, double value);

    /**
     * Append @p run shifted by @p offset, leaving exactly the points
     * that record()ing the samples behind @p run, each @p offset
     * later, would have left. The first point goes through record(),
     * so it collapses into this series' last point as a live sample
     * would; the rest are copied, since @p run already collapsed them
     * against each other. Requires the first shifted point to land on
     * the last point's timestamp or to change its value: otherwise
     * whether a live sample would have left a point there is lost.
     */
    void appendShifted(const TimeSeries &run, SimTime offset);

    bool empty() const { return points_.empty(); }
    const std::vector<Point> &points() const { return points_; }

    /** Largest recorded value; O(n). */
    double peak() const;

    /**
     * Largest value in effect anywhere inside [start, end];
     * O(log n + points in the window). Returns valueAt(start) when
     * @p end <= @p start.
     */
    double maxOver(SimTime start, SimTime end) const;

    /**
     * Time-weighted average over [start, end]; the series is treated as a
     * right-continuous step function. O(log n + points in the window);
     * 0 when the series is empty or @p end <= @p start.
     */
    double timeWeightedAverage(SimTime start, SimTime end) const;

    /** Convenience: average over the whole recorded span. */
    double timeWeightedAverage() const;

    /** Value in effect at @p time (0 before the first sample); O(log n). */
    double valueAt(SimTime time) const;

  private:
    /** First point strictly after @p time (upper bound on time). */
    std::vector<Point>::const_iterator firstAfter(SimTime time) const;

    std::vector<Point> points_;
};

} // namespace flashmem

#endif // FLASHMEM_COMMON_STATS_HH
