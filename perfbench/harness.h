/**
 * @file
 * Benchmark-side plumbing for perfbench: clocks and sample
 * statistics, the span tracer the traced run records around calls
 * into each engine layer, a child-process handle for sigcompd, a
 * one-shot HTTP client, and the result printer.
 *
 * Nothing here reaches inside the engine: spans wrap public calls
 * from the outside, and the daemon is driven over loopback TCP.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

/** Monotonic clock in nanoseconds / seconds / milliseconds. */
std::int64_t nowNs();
double nowSec();

/** A set of timings (or any values) with order statistics. */
struct Samples
{
    std::vector<double> v;

    void add(double x) { v.push_back(x); }
    std::size_t size() const { return v.size(); }
    double median() const;
    /** Nearest-rank quantile, q in [0, 1]. */
    double quantile(double q) const;
    /**
     * The highest percentile with at least ten samples beyond it:
     * p99 once there are 1000 samples, else the (n-10)-th order
     * statistic; the median when no percentile above it has ten
     * samples beyond (n <= 20). @p pct receives the percentile used.
     */
    double tail(double *pct) const;
};

/**
 * Spans recorded around calls into each layer (name, start, end,
 * parent, op id), kept in memory and written as a Chrome trace at
 * the end. Single-threaded: the traced run is serial by design.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        int op = 0;
    };

    /** Spans are recorded only while enabled (the timing twin runs off). */
    bool enabled = true;

    int open(const std::string &name, int op);
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time (duration minus direct children) per span name, ms. */
    std::map<std::string, double> selfMs(int op) const;

    /** Chrome trace-event JSON (sigcomp_prof validate-able). */
    bool writeChrome(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span; a no-op when the tracer is disabled. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, int op)
        : t_(t), id_(t.enabled ? t.open(name, op) : -1)
    {}
    ~Scope()
    {
        if (id_ >= 0)
            t_.close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/**
 * SHA-256 over a SuiteReport JSON with the run-dependent lines
 * (threads, engine accounting, health, telemetry) dropped, so two
 * reports compare equal exactly when their study rows do.
 */
std::string rowsDigest(const std::string &reportJson);

/** VmHWM of @p pid (0 = self) in MiB; resetPeakRss() zeroes it. */
double peakRssMb(pid_t pid = 0);
void resetPeakRss();
/** utime+stime of @p pid in seconds (clock-tick resolution). */
double cpuSeconds(pid_t pid);
/** CPU time of this process, all threads, in seconds (ns resolution). */
double processCpuSec();

/** A running sigcompd on an ephemeral loopback port. */
class Daemon
{
  public:
    /** Start @p exe with @p args plus --port 0; waits until serving. */
    bool start(const std::string &exe, const std::vector<std::string> &args,
               std::string *why);
    /** SIGTERM, wait; true iff exit 0 and "shutdown complete" logged. */
    bool stop(std::string *why);
    ~Daemon();

    pid_t pid() const { return pid_; }
    unsigned port() const { return port_; }

  private:
    pid_t pid_ = -1;
    unsigned port_ = 0;
    int outFd_ = -1;
    std::mutex mu_;
    std::string log_;
    /** Drains the child's stdout into log_; declared after what it uses. */
    std::thread reader_;
};

/** The bytes of one HTTP/1.1 request (POST bodies carry a length). */
std::string httpRequest(const std::string &method, const std::string &target,
                        const std::string &body, const std::string &tenant);

/** One HTTP exchange over a fresh loopback connection. */
struct HttpReply
{
    int status = 0; ///< 0 = transport failure
    std::string body;
};
HttpReply httpCall(unsigned port, const std::string &method,
                   const std::string &target, const std::string &body,
                   const std::string &tenant = "");

/** A JSON array of @p v with three decimals ("[1.000, 2.500]"). */
std::string jsonArray(const std::vector<double> &v);

/** Pull an integer field `"name": N` out of a flat JSON text. */
long long jsonInt(const std::string &json, const std::string &name);

/** The result printed on the last line of stdout. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {value, unit}});
    }
    std::string json() const;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
