/**
 * @file
 * Status/error reporting in the gem5 style.
 *
 * fatal() is for user errors (bad configuration); panic() is for internal
 * invariant violations. Both terminate. warn()/inform() never terminate.
 */

#ifndef FLASHMEM_COMMON_LOGGING_HH
#define FLASHMEM_COMMON_LOGGING_HH

#include <cstddef>
#include <sstream>
#include <string>

namespace flashmem {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent, Error, Warn, Info, Debug };

/**
 * Set the process-wide verbosity. The initial level comes from the
 * FLASHMEM_LOG_LEVEL environment variable
 * (silent|error|warn|info|debug), defaulting to Warn so benches stay
 * clean; this setter overrides it for the rest of the process.
 */
void setLogLevel(LogLevel level);

/** Current process-wide verbosity. */
LogLevel logLevel();

namespace detail {

[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void errorImpl(const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Concatenate a parameter pack through an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Terminate on unrecoverable user error (bad config, invalid argument). */
template <typename... Args>
[[noreturn]] void
fatal(const char *file, int line, Args &&...args)
{
    detail::fatalImpl(file, line, detail::concat(std::forward<Args>(args)...));
}

/** Terminate on internal invariant violation (a FlashMem bug). */
template <typename... Args>
[[noreturn]] void
panic(const char *file, int line, Args &&...args)
{
    detail::panicImpl(file, line, detail::concat(std::forward<Args>(args)...));
}

/** Non-fatal error report (survivable, but louder than a warning). */
template <typename... Args>
void
error(Args &&...args)
{
    detail::errorImpl(detail::concat(std::forward<Args>(args)...));
}

/** Non-fatal warning about suspicious but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Informational progress message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Verbose diagnostic message, suppressed unless LogLevel::Debug. */
template <typename... Args>
void
debugLog(Args &&...args)
{
    detail::debugImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Rate limiter for a recurring warning site: the first `limit`
 * invocations warn normally, then a single note that further
 * occurrences are suppressed. Deliberately count-based, never
 * time-based — a wall-clock window would make the warning stream
 * (and anything that parses it) non-deterministic, which the
 * no-wall-clock lint forbids outside bench/. One instance per
 * warning site (typically a function-local static or a member).
 */
class RateLimitedWarn
{
  public:
    explicit RateLimitedWarn(std::size_t limit = 10) : limit_(limit) {}

    template <typename... Args>
    void
    operator()(Args &&...args)
    {
        ++seen_;
        if (seen_ <= limit_)
            warn(std::forward<Args>(args)...);
        else if (seen_ == limit_ + 1)
            warn("(further identical warnings suppressed after ",
                 limit_, " occurrences)");
    }

    /** Total invocations, emitted or not. */
    std::size_t seen() const { return seen_; }
    /** Invocations swallowed past the limit. */
    std::size_t
    suppressed() const
    {
        return seen_ > limit_ ? seen_ - limit_ : 0;
    }

  private:
    std::size_t limit_;
    std::size_t seen_ = 0;
};

} // namespace flashmem

/* __FILE_NAME__ (the basename; GCC >= 12, Clang >= 9) rather than
 * __FILE__: no checkout path lands in a binary, so two checkouts of the
 * same sources build the same machine code wherever they live. Older
 * compilers fall back to __FILE__. */
#ifdef __FILE_NAME__
#define FM_SOURCE_FILE __FILE_NAME__
#else
#define FM_SOURCE_FILE __FILE__
#endif
#define FM_FATAL(...) ::flashmem::fatal(FM_SOURCE_FILE, __LINE__, __VA_ARGS__)
#define FM_PANIC(...) ::flashmem::panic(FM_SOURCE_FILE, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; always active (not tied to NDEBUG). */
#define FM_ASSERT(cond, ...)                                               \
    do {                                                                   \
        if (!(cond))                                                       \
            FM_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);       \
    } while (0)

#endif // FLASHMEM_COMMON_LOGGING_HH
