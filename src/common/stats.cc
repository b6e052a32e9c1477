#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.hh"

namespace flashmem {

void
RunningStat::add(double x)
{
    ++n_;
    sum_ += x;
    if (n_ == 1) {
        mean_ = x;
        min_ = x;
        max_ = x;
        m2_ = 0.0;
        return;
    }
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStat::variance() const
{
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    std::size_t n = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

P2Quantile::P2Quantile(double quantile) : p_(quantile)
{
    FM_ASSERT(quantile > 0.0 && quantile < 1.0,
              "quantile must be in (0, 1)");
    rate_[0] = 0.0;
    rate_[1] = p_ / 2.0;
    rate_[2] = p_;
    rate_[3] = (1.0 + p_) / 2.0;
    rate_[4] = 1.0;
}

void
P2Quantile::add(double x)
{
    if (n_ < 5) {
        q_[n_++] = x;
        if (n_ == 5) {
            std::sort(q_, q_ + 5);
            for (int i = 0; i < 5; ++i)
                pos_[i] = static_cast<double>(i + 1);
            desired_[0] = 1.0;
            desired_[1] = 1.0 + 2.0 * p_;
            desired_[2] = 1.0 + 4.0 * p_;
            desired_[3] = 3.0 + 2.0 * p_;
            desired_[4] = 5.0;
        }
        return;
    }
    ++n_;

    // Cell k holds x: markers above it shift right by one.
    int k;
    if (x < q_[0]) {
        q_[0] = x;
        k = 0;
    } else if (x >= q_[4]) {
        q_[4] = x;
        k = 3;
    } else {
        k = 0;
        while (k < 3 && x >= q_[k + 1])
            ++k;
    }
    for (int i = k + 1; i < 5; ++i)
        pos_[i] += 1.0;
    for (int i = 0; i < 5; ++i)
        desired_[i] += rate_[i];

    // Adjust the three interior markers toward their desired positions
    // with the piecewise-parabolic (P^2) height update, falling back to
    // linear interpolation when the parabola breaks monotonicity.
    for (int i = 1; i <= 3; ++i) {
        double d = desired_[i] - pos_[i];
        if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
            (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
            double s = d >= 0.0 ? 1.0 : -1.0;
            double np = pos_[i + 1], pp = pos_[i - 1], cp = pos_[i];
            double parabolic =
                q_[i] +
                s / (np - pp) *
                    ((cp - pp + s) * (q_[i + 1] - q_[i]) / (np - cp) +
                     (np - cp - s) * (q_[i] - q_[i - 1]) / (cp - pp));
            if (q_[i - 1] < parabolic && parabolic < q_[i + 1]) {
                q_[i] = parabolic;
            } else {
                int j = i + static_cast<int>(s);
                q_[i] += s * (q_[j] - q_[i]) / (pos_[j] - cp);
            }
            pos_[i] += s;
        }
    }
}

double
P2Quantile::value() const
{
    if (n_ == 0)
        return 0.0;
    if (n_ < 5) {
        // Nearest-rank on the stored prefix.
        double sorted[5];
        std::copy(q_, q_ + n_, sorted);
        std::sort(sorted, sorted + n_);
        auto rank = static_cast<std::size_t>(
            std::ceil(p_ * static_cast<double>(n_)));
        rank = std::min(std::max<std::size_t>(rank, 1), n_);
        return sorted[rank - 1];
    }
    return q_[2];
}

void
TimeSeries::record(SimTime time, double value)
{
    if (!points_.empty()) {
        FM_ASSERT(time >= points_.back().time,
                  "TimeSeries samples must be time-ordered");
        // Collapse same-timestamp updates: last write wins.
        if (points_.back().time == time) {
            points_.back().value = value;
            return;
        }
        if (points_.back().value == value)
            return;
    }
    points_.push_back({time, value});
}

void
TimeSeries::appendShifted(const TimeSeries &run, SimTime offset)
{
    if (run.points_.empty())
        return;
    const Point &first = run.points_.front();
    FM_ASSERT(points_.empty() ||
                  points_.back().time == first.time + offset ||
                  points_.back().value != first.value,
              "appended run's first point repeats the value in effect");
    record(first.time + offset, first.value);
    for (auto it = run.points_.begin() + 1; it != run.points_.end(); ++it)
        points_.push_back({it->time + offset, it->value});
}

double
TimeSeries::peak() const
{
    double p = 0.0;
    for (const auto &pt : points_)
        p = std::max(p, pt.value);
    return p;
}

double
TimeSeries::maxOver(SimTime start, SimTime end) const
{
    double best = valueAt(start);
    for (auto it = firstAfter(start);
         it != points_.end() && it->time <= end; ++it)
        best = std::max(best, it->value);
    return best;
}

double
TimeSeries::timeWeightedAverage(SimTime start, SimTime end) const
{
    if (points_.empty() || end <= start)
        return 0.0;
    double area = 0.0;
    double current = valueAt(start);
    SimTime cursor = start;
    for (auto it = firstAfter(start);
         it != points_.end() && it->time < end; ++it) {
        area += current * static_cast<double>(it->time - cursor);
        cursor = it->time;
        current = it->value;
    }
    area += current * static_cast<double>(end - cursor);
    return area / static_cast<double>(end - start);
}

double
TimeSeries::timeWeightedAverage() const
{
    if (points_.size() < 2)
        return points_.empty() ? 0.0 : points_.front().value;
    return timeWeightedAverage(points_.front().time, points_.back().time);
}

double
TimeSeries::valueAt(SimTime time) const
{
    auto it = firstAfter(time);
    return it == points_.begin() ? 0.0 : std::prev(it)->value;
}

std::vector<TimeSeries::Point>::const_iterator
TimeSeries::firstAfter(SimTime time) const
{
    return std::upper_bound(
        points_.begin(), points_.end(), time,
        [](SimTime t, const Point &pt) { return t < pt.time; });
}

} // namespace flashmem
