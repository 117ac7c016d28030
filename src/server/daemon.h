/**
 * @file
 * sigcompd's core: a multi-tenant experiment-serving daemon over the
 * socket seam (common/net.h).
 *
 * One Daemon owns:
 *
 *  - ONE analysis::TraceCache over the read-only trace store
 *    directory — the daemon's RAM tier: each resident trace, with
 *    its quanta records and result memos, exists once per daemon,
 *    not once per tenant (all are pure functions of the immutable
 *    store, so sharing them changes no row),
 *  - a per-tenant map of analysis::Session instances over that
 *    cache, each with its own executor and admission limits,
 *  - a disconnect watcher thread cancelling a request's own
 *    CancelSource once its client hangs up — a dead client's plan
 *    stops at the next block boundary and frees its admission slot
 *    instead of burning the engine for nobody.
 *
 * A /v1/run request is parse, Session::run, toJson, reply: each
 * request owns its run and its cancel. A repeated plan whose traces
 * are still resident is answered from their result memos (no load,
 * no replay) and reports its own wall_ms. Identical plans racing
 * each other each run the engine, but the costly half of a cold plan
 * (capture or store load) still happens once, in the shared cache.
 * A store re-prewarmed under a live daemon is not noticed: restart
 * it to drop its resident traces and memos.
 *
 * Protocol (HTTP/1.1, one request per connection, see server/http.h):
 *
 *   POST /v1/run    body: sigcomp-study-plan-v2 JSON
 *                   reply: sigcomp-suite-report-v4 JSON (200; 503
 *                   with the same report shape when admission
 *                   rejected), errors: sigcomp-daemon-error-v1
 *   GET  /healthz   "ok" once serving
 *   GET  /statsz    sigcomp-daemon-stats-v2 JSON: tenant count and
 *                   every daemon.* metric (the resident-trace gauges
 *                   are read from the shared cache when the body is
 *                   rendered)
 *
 * The optional X-Sigcomp-Tenant header ([a-z0-9_-], <= 64 bytes,
 * default "default") selects the tenant session.
 *
 * Thread model: serve() accepts and hands each connection to a
 * handler thread that serves it, then parks for the next one; a new
 * thread is spawned only when no handler is idle, so concurrency is
 * unbounded while steady-state serving creates no threads.
 * serveConn() is also directly callable (the tests drive it over
 * memoryConnPair with no sockets involved). All shared state is
 * mutex-guarded and annotated; the TSan concurrency test hammers one
 * Daemon from many client threads.
 */

#ifndef SIGCOMP_SERVER_DAEMON_H_
#define SIGCOMP_SERVER_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/session.h"
#include "common/cancel.h"
#include "common/mutex.h"
#include "common/net.h"
#include "common/telemetry.h"
#include "server/http.h"

namespace sigcomp::server
{

/**
 * Construction-time configuration of a Daemon: the tenant sessions'
 * settings. A plan carries its own deadline (deadline_ms).
 */
struct DaemonConfig
{
    /**
     * Every tenant session's configuration, and the daemon's one
     * shared TraceCache's, which is built from it: the store
     * binding and capture limit are daemon-wide, the executor and
     * admission limits are per tenant. Serving defaults: the store
     * opens read-only (nobody mutates segments; tests flip it to
     * exercise the cancelled-writer path), and each tenant runs 2
     * plans at once with 8 queued. An empty storeDir serves RAM-only
     * sessions (unit tests; capture happens on demand) and then
     * readOnly is ignored. Prewarm the store with sigcomp_store
     * first; captureLimit must match its segments'.
     */
    analysis::SessionConfig session{
        .readOnly = true, .maxConcurrentPlans = 2, .maxQueuedPlans = 8};
};

class Daemon
{
  public:
    explicit Daemon(DaemonConfig config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Accept-and-dispatch loop, until requestStop() (or a hard
     * listener fault). Each accepted connection goes to a parked
     * handler thread, or to a new one when none is idle. A handler
     * that finishes parks for the next connection unless enough
     * others are parked already, in which case it exits and is
     * joined on a later accept; live threads therefore stay bounded
     * by open connections plus a few parked ones. Every handler is
     * joined before returning, so the caller may destroy the
     * listener afterwards.
     */
    void serve(net::Listener &listener);

    /**
     * Handle exactly one request on @p conn, reply, and close it.
     * The public seam the tests call directly over memory conns.
     * Shared ownership because the disconnect watcher holds a weak
     * reference while a run is in flight.
     */
    void serveConn(std::shared_ptr<net::Conn> conn);

    /** Ask serve() and the watcher to wind down. Thread-safe. */
    void requestStop();
    bool stopRequested() const;

    /** The daemon.* metric namespace (/statsz's source). */
    telemetry::Registry &metrics() { return registry_; }

    /**
     * The tenant's session, created on first use over the daemon's
     * shared TraceCache (so every tenant's cache() is the same one).
     */
    analysis::Session &tenantSession(const std::string &tenant)
        SIGCOMP_EXCLUDES(tenantsMu_);

    /** The /statsz body (schema "sigcomp-daemon-stats-v2"). */
    std::string statszJson() const;

  private:
    /**
     * A connection the watcher polls while its request's run is in
     * flight, and that request's own cancel.
     */
    struct WatchEntry
    {
        std::uint64_t id = 0;
        std::weak_ptr<net::Conn> conn;
        CancelSource cancel;
    };

    class HandlerPool;

    /**
     * serveConn() minus the close: read one request, route it and
     * reply. serve()'s handlers park before closing, so a client that
     * connects again as soon as it sees the close finds one idle.
     */
    void answerConn(const std::shared_ptr<net::Conn> &conn);
    /** Dispatch one parsed request to its route. */
    void handleRequest(const std::shared_ptr<net::Conn> &conn,
                       const HttpRequest &request);
    /** Parse, Session::run, toJson, reply: the request runs its plan. */
    void handleRun(const std::shared_ptr<net::Conn> &conn,
                   const HttpRequest &request);
    void respond(const std::shared_ptr<net::Conn> &conn, int status,
                 std::string_view contentType, std::string_view body);
    /** sigcomp-daemon-error-v1 reply. */
    void respondError(const std::shared_ptr<net::Conn> &conn,
                      int status, std::string_view kind,
                      std::string_view message);

    std::uint64_t watchConn(const std::shared_ptr<net::Conn> &conn,
                            const CancelSource &cancel)
        SIGCOMP_EXCLUDES(watchMu_);
    /**
     * Stop watching; once this returns, the request's cancel can no
     * longer fire, so a hang-up after the reply counts nothing.
     */
    void unwatchConn(std::uint64_t id) SIGCOMP_EXCLUDES(watchMu_);
    /** Watcher thread body: poll peerClosed, cancel orphaned runs. */
    void watchLoop();

    const DaemonConfig config_;
    /** The RAM tier every tenant session serves from. */
    const std::shared_ptr<analysis::TraceCache> traces_;
    telemetry::Registry registry_;

    mutable Mutex tenantsMu_;
    std::map<std::string, std::unique_ptr<analysis::Session>>
        tenants_ SIGCOMP_GUARDED_BY(tenantsMu_);

    mutable Mutex watchMu_;
    std::condition_variable watchCv_;
    std::list<WatchEntry> watches_ SIGCOMP_GUARDED_BY(watchMu_);
    std::uint64_t nextWatchId_ SIGCOMP_GUARDED_BY(watchMu_) = 1;
    bool stop_ SIGCOMP_GUARDED_BY(watchMu_) = false;
    std::thread watcher_;

    /** Live serveConn count, mirrored into the gauge. */
    std::atomic<int> activeConnCount_{0};

    telemetry::Counter &requests_;
    telemetry::Counter &httpErrors_;
    telemetry::Counter &planErrors_;
    telemetry::Counter &runs_;
    telemetry::Counter &disconnectCancels_;
    telemetry::Gauge &activeConns_;
    telemetry::Gauge &tenantsGauge_;
    /** serve()'s live handler threads, parked ones included. */
    telemetry::Gauge &handlerThreads_;
    telemetry::Counter &handlerSpawns_;
    /**
     * The shared cache's ready traces, their bytes (annexes
     * included) and the annexes' share of those bytes; set when
     * /statsz is rendered.
     */
    telemetry::Gauge &residentTraces_;
    telemetry::Gauge &residentTraceBytes_;
    telemetry::Gauge &residentAnnexBytes_;
    /**
     * Steady-clock time spent in each /v1/run phase. Parse is charged
     * per request that reaches it; run (admission included),
     * serialize and reply per run.
     */
    telemetry::Counter &parseNs_;
    telemetry::Counter &runNs_;
    telemetry::Counter &serializeNs_;
    telemetry::Counter &replyNs_;
};

} // namespace sigcomp::server

#endif // SIGCOMP_SERVER_DAEMON_H_
