#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"
#include "models/model_zoo.hh"

namespace flashmem::obs {

namespace {

/** Zoo abbreviation for a model payload, "-" when absent/foreign. */
const char *
modelName(std::int32_t model)
{
    if (model < 0 ||
        static_cast<std::size_t>(model) >= models::modelZoo().size())
        return "-";
    // The zoo is a function-local static, so the abbr storage is
    // stable for the life of the process.
    return models::modelSpec(static_cast<models::ModelId>(model))
        .abbr.c_str();
}

/** Stable time-sorted view: same-instant events keep append order. */
std::vector<std::size_t>
sortedIndex(const std::vector<TraceEvent> &events)
{
    std::vector<std::size_t> idx(events.size());
    for (std::size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t l, std::size_t r) {
                         return events[l].time < events[r].time;
                     });
    return idx;
}

/** Nanoseconds -> microsecond timestamp string ("12.345") via
 * integer division only, so the export is byte-deterministic. */
void
formatMicros(char *buf, std::size_t n, SimTime ns)
{
    std::snprintf(buf, n, "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
}

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::RequestArrival: return "request_arrival";
      case EventKind::AdmissionVerdict: return "admission_verdict";
      case EventKind::RequestDispatch: return "request_dispatch";
      case EventKind::RequestComplete: return "request_complete";
      case EventKind::RequestShed: return "request_shed";
      case EventKind::RetryScheduled: return "retry_scheduled";
      case EventKind::FaultInjected: return "fault_injected";
      case EventKind::DeviceHealthChange: return "device_health";
      case EventKind::Replan: return "replan";
      case EventKind::SolverWindow: return "solver_window";
    }
    return "?";
}

const char *
admissionVerdictCodeName(std::int64_t code)
{
    switch (code) {
      case 0: return "admit";
      case 1: return "degrade";
      case 2: return "shed";
    }
    return "?";
}

const char *
dropReasonCodeName(std::int64_t code)
{
    switch (code) {
      case 0: return "admission";
      case 1: return "fault_budget";
      case 2: return "starved";
      case 3: return "arrival_shed";
    }
    return "?";
}

const char *
faultKindCodeName(std::int64_t code)
{
    switch (code) {
      case 0: return "crash";
      case 1: return "rejoin";
      case 2: return "stall";
      case 3: return "slowdown";
      case 4: return "dma_error";
    }
    return "?";
}

const char *
deviceHealthCodeName(std::int64_t code)
{
    switch (code) {
      case 0: return "healthy";
      case 1: return "suspect";
      case 2: return "down";
    }
    return "?";
}

const char *
stopReasonCodeName(std::int64_t code)
{
    switch (code) {
      case 0: return "exhausted";
      case 1: return "decision_limit";
      case 2: return "time_limit";
    }
    return "?";
}

void
TraceRecorder::writeText(std::ostream &os, Stream stream) const
{
    char buf[256];
    for (std::size_t i : sortedIndex(events_)) {
        const TraceEvent &e = events_[i];
        if (stream == Stream::Serving &&
            (e.kind == EventKind::Replan ||
             e.kind == EventKind::SolverWindow))
            continue;
        switch (e.kind) {
          case EventKind::RequestArrival:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] request_arrival req=%llu "
                          "model=%s bound=%lld",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          modelName(e.model),
                          static_cast<long long>(e.a));
            break;
          case EventKind::AdmissionVerdict:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] admission_verdict req=%llu "
                          "model=%s verdict=%s tier=%lld",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          modelName(e.model),
                          admissionVerdictCodeName(e.a),
                          static_cast<long long>(e.b));
            break;
          case EventKind::RequestDispatch:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] request_dispatch req=%llu "
                          "run=%lld dev=%d model=%s start=%lld "
                          "init_done=%lld end=%lld",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          static_cast<long long>(e.runId), e.device,
                          modelName(e.model),
                          static_cast<long long>(e.a),
                          static_cast<long long>(e.b),
                          static_cast<long long>(e.c));
            break;
          case EventKind::RequestComplete:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] request_complete req=%llu "
                          "run=%lld dev=%d model=%s start=%lld "
                          "init_done=%lld",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          static_cast<long long>(e.runId), e.device,
                          modelName(e.model),
                          static_cast<long long>(e.a),
                          static_cast<long long>(e.b));
            break;
          case EventKind::RequestShed:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] request_shed req=%llu model=%s "
                          "reason=%s attempts=%lld",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          modelName(e.model),
                          dropReasonCodeName(e.a),
                          static_cast<long long>(e.b));
            break;
          case EventKind::RetryScheduled:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] retry_scheduled req=%llu "
                          "model=%s retry_at=%lld attempts=%lld "
                          "failed_dev=%d",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          modelName(e.model),
                          static_cast<long long>(e.a),
                          static_cast<long long>(e.b), e.device);
            break;
          case EventKind::FaultInjected:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] fault_injected fault=%llu dev=%d "
                          "kind=%s duration=%lld factor_milli=%lld",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          e.device, faultKindCodeName(e.a),
                          static_cast<long long>(e.b),
                          static_cast<long long>(e.c));
            break;
          case EventKind::DeviceHealthChange:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] device_health dev=%d health=%s "
                          "crash_down=%lld probation_until=%lld",
                          static_cast<long long>(e.time), e.device,
                          deviceHealthCodeName(e.a),
                          static_cast<long long>(e.b),
                          static_cast<long long>(e.c));
            break;
          case EventKind::Replan:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] replan model=%s budget=%lld "
                          "reused=%lld windows=%lld",
                          static_cast<long long>(e.time),
                          modelName(e.model),
                          static_cast<long long>(e.a),
                          static_cast<long long>(e.b),
                          static_cast<long long>(e.c));
            break;
          case EventKind::SolverWindow:
            std::snprintf(buf, sizeof(buf),
                          "[t=%lld] solver_window window=%llu "
                          "model=%s conflicts=%lld restarts=%lld "
                          "propagations=%lld proven_optimal=%lld "
                          "stop=%s reused=%d",
                          static_cast<long long>(e.time),
                          static_cast<unsigned long long>(e.id),
                          modelName(e.model),
                          static_cast<long long>(e.a),
                          static_cast<long long>(e.b),
                          static_cast<long long>(e.c),
                          static_cast<long long>(e.flag),
                          stopReasonCodeName(e.runId), e.device);
            break;
        }
        os << buf << '\n';
    }
}

std::string
TraceRecorder::text(Stream stream) const
{
    std::ostringstream os;
    writeText(os, stream);
    return os.str();
}

void
TraceRecorder::writeChromeJson(std::ostream &os) const
{
    // Track layout: pid 0 holds everything. Device d gets compute
    // track tid 2d+1 and DMA track tid 2d+2; the planner is tid 998
    // and the async request lane plus request-level instants are tid
    // 999. Metadata events name the tracks so Perfetto labels them.
    std::int32_t max_device = -1;
    bool planner = false;
    for (const TraceEvent &e : events_) {
        const bool planner_event = e.kind == EventKind::Replan ||
                                   e.kind == EventKind::SolverWindow;
        // SolverWindow's device slot holds its reused-round count.
        if (!planner_event)
            max_device = std::max(max_device,
                                  static_cast<std::int32_t>(e.device));
        planner = planner || planner_event;
    }

    os << "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const char *record) {
        os << (first ? "\n" : ",\n") << record;
        first = false;
    };
    char buf[512];
    char ts[32], dur[32];

    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                  "\"name\":\"process_name\","
                  "\"args\":{\"name\":\"flashmem sim\"}}");
    emit(buf);
    auto thread_name = [&](int tid, const char *name) {
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                      "\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"%s\"}}",
                      tid, name);
        emit(buf);
    };
    for (std::int32_t d = 0; d <= max_device; ++d) {
        char name[32];
        std::snprintf(name, sizeof(name), "dev %d compute", d);
        thread_name(2 * d + 1, name);
        std::snprintf(name, sizeof(name), "dev %d dma", d);
        thread_name(2 * d + 2, name);
    }
    if (planner)
        thread_name(998, "planner");
    thread_name(999, "requests");

    // @p extra is appended inside the record, e.g. an "args" member.
    auto instant = [&](int tid, SimTime t, const char *name,
                       const char *extra = "") {
        formatMicros(ts, sizeof(ts), t);
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,"
                      "\"ts\":%s,\"s\":\"t\",\"name\":\"%s\"%s}",
                      tid, ts, name, extra);
        emit(buf);
    };
    char name[96];
    char args[64];
    for (std::size_t i : sortedIndex(events_)) {
        const TraceEvent &e = events_[i];
        switch (e.kind) {
          case EventKind::RequestArrival:
            formatMicros(ts, sizeof(ts), e.time);
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"b\",\"pid\":0,\"tid\":999,"
                          "\"ts\":%s,\"cat\":\"request\","
                          "\"id\":%llu,\"name\":\"req\"}",
                          ts,
                          static_cast<unsigned long long>(e.id));
            emit(buf);
            break;
          case EventKind::AdmissionVerdict:
            // Admit verdicts are the overwhelming majority; only the
            // exceptional ones earn an instant.
            if (e.a != 0) {
                std::snprintf(name, sizeof(name), "%s #%llu @arrival",
                              admissionVerdictCodeName(e.a),
                              static_cast<unsigned long long>(e.id));
                instant(999, e.time, name);
            }
            break;
          case EventKind::RequestDispatch:
            // The completion record carries the actual timeline; a
            // planned-times span would double-draw every run.
            break;
          case EventKind::RequestComplete: {
            SimTime start = e.a, init_done = e.b, end = e.time;
            if (init_done > start) {
                formatMicros(ts, sizeof(ts), start);
                formatMicros(dur, sizeof(dur), init_done - start);
                std::snprintf(
                    buf, sizeof(buf),
                    "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,"
                    "\"dur\":%s,\"cat\":\"dma\","
                    "\"name\":\"%s #%llu dma\"}",
                    2 * e.device + 2, ts, dur, modelName(e.model),
                    static_cast<unsigned long long>(e.id));
                emit(buf);
            }
            formatMicros(ts, sizeof(ts), init_done);
            formatMicros(dur, sizeof(dur), end - init_done);
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                          "\"ts\":%s,\"dur\":%s,\"cat\":\"compute\","
                          "\"name\":\"%s #%llu\"}",
                          2 * e.device + 1, ts, dur,
                          modelName(e.model),
                          static_cast<unsigned long long>(e.id));
            emit(buf);
            formatMicros(ts, sizeof(ts), end);
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"e\",\"pid\":0,\"tid\":999,"
                          "\"ts\":%s,\"cat\":\"request\","
                          "\"id\":%llu,\"name\":\"req\"}",
                          ts,
                          static_cast<unsigned long long>(e.id));
            emit(buf);
            break;
          }
          case EventKind::RequestShed:
            std::snprintf(name, sizeof(name), "shed #%llu (%s)",
                          static_cast<unsigned long long>(e.id),
                          dropReasonCodeName(e.a));
            instant(999, e.time, name);
            formatMicros(ts, sizeof(ts), e.time);
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\":\"e\",\"pid\":0,\"tid\":999,"
                          "\"ts\":%s,\"cat\":\"request\","
                          "\"id\":%llu,\"name\":\"req\"}",
                          ts,
                          static_cast<unsigned long long>(e.id));
            emit(buf);
            break;
          case EventKind::RetryScheduled:
            std::snprintf(name, sizeof(name),
                          "retry #%llu (attempt %lld)",
                          static_cast<unsigned long long>(e.id),
                          static_cast<long long>(e.b));
            instant(999, e.time, name);
            break;
          case EventKind::FaultInjected:
            std::snprintf(name, sizeof(name), "fault:%s",
                          faultKindCodeName(e.a));
            instant(2 * e.device + 1, e.time, name);
            break;
          case EventKind::DeviceHealthChange:
            std::snprintf(name, sizeof(name), "health:%s",
                          deviceHealthCodeName(e.a));
            instant(2 * e.device + 1, e.time, name);
            break;
          case EventKind::Replan:
            std::snprintf(name, sizeof(name),
                          "replan %s (reused=%lld)",
                          modelName(e.model),
                          static_cast<long long>(e.b));
            instant(998, e.time, name);
            break;
          case EventKind::SolverWindow:
            std::snprintf(name, sizeof(name),
                          "window %llu (conflicts=%lld%s)",
                          static_cast<unsigned long long>(e.id),
                          static_cast<long long>(e.a),
                          e.flag != 0 ? ", optimal" : "");
            std::snprintf(args, sizeof(args),
                          ",\"args\":{\"stop\":\"%s\","
                          "\"reused\":%d}",
                          stopReasonCodeName(e.runId), e.device);
            instant(998, e.time, name, args);
            break;
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void
CounterRegistry::add(const std::string &name, std::int64_t delta)
{
    FM_ASSERT(delta >= 0, "counters are monotonic; use a gauge");
    counters_[name] += delta;
}

void
CounterRegistry::setGauge(const std::string &name, std::int64_t value)
{
    gauges_[name] = value;
}

std::int64_t
CounterRegistry::value(const std::string &name) const
{
    auto it = counters_.find(name);
    if (it != counters_.end())
        return it->second;
    auto git = gauges_.find(name);
    return git != gauges_.end() ? git->second : 0;
}

std::vector<std::pair<std::string, std::int64_t>>
CounterRegistry::snapshot() const
{
    std::vector<std::pair<std::string, std::int64_t>> out;
    out.reserve(counters_.size() + gauges_.size());
    for (const auto &kv : counters_)
        out.push_back(kv);
    for (const auto &kv : gauges_)
        out.push_back(kv);
    return out;
}

void
CounterRegistry::writeText(std::ostream &os) const
{
    for (const auto &[name, v] : counters_)
        os << "counter " << name << " = " << v << '\n';
    for (const auto &[name, v] : gauges_)
        os << "gauge " << name << " = " << v << '\n';
}

} // namespace flashmem::obs
