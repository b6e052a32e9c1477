/**
 * @file
 * Exact ledger assertions for the benches registered under the
 * `ledger` ctest label.
 *
 * Every value a ledger bench asserts is a deterministic function of
 * its inputs (simulated times, counters, statuses, objectives), so
 * the expected values are compiled in and compared exactly: integers,
 * counts and statuses bit for bit, doubles to within 1e-9 relative. A
 * moved value fails the bench's exit status, and the miss line prints
 * the new value at full precision so a deliberate change can update
 * the constant. Host wall times are never ledger values.
 */

#ifndef FLASHMEM_BENCH_LEDGER_HH
#define FLASHMEM_BENCH_LEDGER_HH

#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace flashmem::bench {

class Ledger
{
  public:
    /** Integers, counts and statuses: exact. */
    void
    eq(std::string_view what, std::int64_t got, std::int64_t want)
    {
        check(what, got == want, got, want);
    }

    void
    eq(std::string_view what, std::string_view got,
       std::string_view want)
    {
        check(what, got == want, got, want);
    }

    /** Doubles: within 1e-9 relative. */
    void
    near(std::string_view what, double got, double want)
    {
        check(what,
              std::abs(got - want) <= 1e-9 * std::abs(want), got, want);
    }

    /** Print the misses and the verdict; true when every value held. */
    bool
    report(std::ostream &os) const
    {
        for (const auto &m : misses_)
            os << "LEDGER MISS " << m << "\n";
        os << "Ledger (" << checked_ << " exact values): "
           << (misses_.empty() ? "PASS" : "FAIL") << "\n";
        return misses_.empty();
    }

  private:
    template <typename T>
    void
    check(std::string_view what, bool held, const T &got,
          const T &want)
    {
        ++checked_;
        if (held)
            return;
        std::ostringstream os;
        os << std::setprecision(17) << what << ": got " << got
           << ", ledger " << want;
        misses_.push_back(os.str());
    }

    std::size_t checked_ = 0;
    std::vector<std::string> misses_;
};

} // namespace flashmem::bench

#endif // FLASHMEM_BENCH_LEDGER_HH
