#include "server/daemon.h"

#include <atomic>
#include <chrono>
#include <deque>

#include "analysis/plan_json.h"
#include "common/json.h"
#include "common/logging.h"

namespace sigcomp::server
{

namespace
{

constexpr const char *kStatsSchemaId = "sigcomp-daemon-stats-v2";
constexpr const char *kErrorSchemaId = "sigcomp-daemon-error-v1";

/** Parked handler threads beyond this many exit instead. */
constexpr unsigned kMaxIdleHandlers = 8;

/** Disconnect-watcher poll interval. */
constexpr std::chrono::milliseconds kWatchInterval{20};

/**
 * Adds the steady-clock time since construction (or since the last
 * lap) to a Nanos counter: the /v1/run phase costs in /statsz.
 */
class PhaseClock
{
  public:
    /** Charge the time since the last lap to @p phase. */
    void
    lap(telemetry::Counter &phase)
    {
        const Clock::time_point now = Clock::now();
        phase.inc(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 last_)
                .count()));
        last_ = now;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point last_ = Clock::now();
};

bool
validTenant(std::string_view tenant)
{
    if (tenant.empty() || tenant.size() > 64)
        return false;
    for (char c : tenant) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

/**
 * Every tenant session's configuration: DaemonConfig::session, with
 * readOnly dropped when there is no store (readOnly without a
 * storeDir is a Session configuration error; a store-less daemon
 * serves RAM-only sessions).
 */
analysis::SessionConfig
tenantConfig(const DaemonConfig &config)
{
    analysis::SessionConfig sc = config.session;
    sc.readOnly = sc.readOnly && !sc.storeDir.empty();
    return sc;
}

} // namespace

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      traces_(std::make_shared<analysis::TraceCache>(tenantConfig(config_))),
      requests_(registry_.counter("daemon.requests")),
      httpErrors_(registry_.counter("daemon.http_errors")),
      planErrors_(registry_.counter("daemon.plan_errors")),
      runs_(registry_.counter("daemon.runs")),
      disconnectCancels_(
          registry_.counter("daemon.disconnect_cancels")),
      activeConns_(registry_.gauge("daemon.active_connections")),
      tenantsGauge_(registry_.gauge("daemon.tenants")),
      handlerThreads_(registry_.gauge("daemon.handler_threads")),
      handlerSpawns_(registry_.counter("daemon.handler_spawns")),
      residentTraces_(registry_.gauge("daemon.resident_traces")),
      residentTraceBytes_(registry_.gauge("daemon.resident_trace_bytes",
                                          telemetry::Unit::Bytes)),
      residentAnnexBytes_(registry_.gauge("daemon.resident_annex_bytes",
                                          telemetry::Unit::Bytes)),
      parseNs_(registry_.counter("daemon.parse_ns", telemetry::Unit::Nanos)),
      runNs_(registry_.counter("daemon.run_ns", telemetry::Unit::Nanos)),
      serializeNs_(registry_.counter("daemon.serialize_ns",
                                     telemetry::Unit::Nanos)),
      replyNs_(registry_.counter("daemon.reply_ns", telemetry::Unit::Nanos))
{
    watcher_ = std::thread([this] { watchLoop(); });
}

Daemon::~Daemon()
{
    requestStop();
    if (watcher_.joinable())
        watcher_.join();
}

void
Daemon::requestStop()
{
    MutexLock lock(watchMu_);
    stop_ = true;
    watchCv_.notify_all();
}

bool
Daemon::stopRequested() const
{
    MutexLock lock(watchMu_);
    return stop_;
}

analysis::Session &
Daemon::tenantSession(const std::string &tenant)
{
    MutexLock lock(tenantsMu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
        it = tenants_
                 .emplace(tenant, std::make_unique<analysis::Session>(
                                      tenantConfig(config_), traces_))
                 .first;
        tenantsGauge_.set(static_cast<std::int64_t>(tenants_.size()));
    }
    return *it->second;
}

// ------------------------------------------------------------------
// Disconnect watcher
// ------------------------------------------------------------------

std::uint64_t
Daemon::watchConn(const std::shared_ptr<net::Conn> &conn,
                  const CancelSource &cancel)
{
    MutexLock lock(watchMu_);
    const std::uint64_t id = nextWatchId_++;
    watches_.push_back(WatchEntry{id, conn, cancel});
    return id;
}

void
Daemon::unwatchConn(std::uint64_t id)
{
    MutexLock lock(watchMu_);
    std::erase_if(watches_,
                  [id](const WatchEntry &entry) { return entry.id == id; });
}

void
Daemon::watchLoop()
{
    UniqueLock lock(watchMu_);
    while (!stop_) {
        watchCv_.wait_for(lock.native(), kWatchInterval);
        if (stop_)
            return;
        // Cancel under the lock (peerClosed never blocks): once
        // unwatchConn() has returned, a request's cancel can no
        // longer fire, so a hang-up after its reply counts nothing.
        for (auto it = watches_.begin(); it != watches_.end();) {
            const std::shared_ptr<net::Conn> conn = it->conn.lock();
            if (conn != nullptr && !conn->peerClosed()) {
                ++it;
                continue;
            }
            it->cancel.cancel();
            disconnectCancels_.inc();
            it = watches_.erase(it);
        }
    }
}

// ------------------------------------------------------------------
// Serving
// ------------------------------------------------------------------

/**
 * serve()'s handler threads. A handler answers its connection, counts
 * itself idle, closes the connection and parks until dispatch() hands
 * it the next one; dispatch() spawns a thread only when no handler is
 * idle, so a connection never waits for a busy handler. A handler
 * that would park as the (kMaxIdleHandlers+1)-th exits instead, and
 * exited handlers are joined on the next dispatch.
 */
class Daemon::HandlerPool
{
  public:
    explicit HandlerPool(Daemon &daemon) : daemon_(daemon) {}

    /** Wakes every parked handler and joins all of them. */
    ~HandlerPool()
    {
        {
            MutexLock lock(mu_);
            closing_ = true;
        }
        ready_.notify_all();
        for (Handler &h : handlers_)
            h.thread.join();
    }

    HandlerPool(const HandlerPool &) = delete;
    HandlerPool &operator=(const HandlerPool &) = delete;

    /** Serve @p conn on a parked handler, else on a new thread. */
    void
    dispatch(std::shared_ptr<net::Conn> conn)
    {
        std::erase_if(handlers_, [](Handler &h) {
            if (!h.done->load(std::memory_order_acquire))
                return false;
            h.thread.join();
            return true;
        });
        {
            MutexLock lock(mu_);
            if (idle_ > 0) {
                // Reserve one parked handler for this connection.
                --idle_;
                pending_.push_back(std::move(conn));
                ready_.notify_one();
                return;
            }
        }
        daemon_.handlerSpawns_.inc();
        addLive(1);
        auto done = std::make_shared<std::atomic<bool>>(false);
        handlers_.push_back(
            {std::thread([this, conn = std::move(conn), done]() mutable {
                 run(std::move(conn));
                 addLive(-1);
                 done->store(true, std::memory_order_release);
             }),
             done});
    }

  private:
    struct Handler
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };

    /** Live handler count, mirrored into daemon.handler_threads. */
    void
    addLive(int delta)
    {
        daemon_.handlerThreads_.set(
            liveCount_.fetch_add(delta, std::memory_order_relaxed) +
            delta);
    }

    /** Handler body: serve, park, repeat until told to exit. */
    void
    run(std::shared_ptr<net::Conn> conn)
    {
        for (;;) {
            daemon_.answerConn(conn);
            // Count as idle BEFORE the close the client waits for, so
            // its next connection finds this handler available.
            bool park = false;
            {
                MutexLock lock(mu_);
                park = !closing_ && idle_ < kMaxIdleHandlers;
                if (park)
                    ++idle_;
            }
            conn->closeConn();
            conn.reset();
            if (!park)
                return;
            UniqueLock lock(mu_);
            while (pending_.empty() && !closing_)
                ready_.wait(lock.native());
            if (pending_.empty()) {
                --idle_; // closing, and no connection reserved us
                return;
            }
            // dispatch() already took this handler off idle_.
            conn = std::move(pending_.front());
            pending_.pop_front();
        }
    }

    Daemon &daemon_;
    std::atomic<int> liveCount_{0};

    Mutex mu_;
    std::condition_variable ready_;
    /**
     * Parked handlers not yet reserved; parked handlers in all are
     * idle_ + pending_.size().
     */
    unsigned idle_ SIGCOMP_GUARDED_BY(mu_) = 0;
    std::deque<std::shared_ptr<net::Conn>> pending_
        SIGCOMP_GUARDED_BY(mu_);
    bool closing_ SIGCOMP_GUARDED_BY(mu_) = false;
    /** Touched only by the serve() thread. */
    std::vector<Handler> handlers_;
};

void
Daemon::serve(net::Listener &listener)
{
    HandlerPool pool(*this);
    for (;;) {
        EnvStatus status = EnvStatus::good();
        std::unique_ptr<net::Conn> accepted =
            listener.acceptConn(&status);
        if (accepted == nullptr) {
            if (!status.ok())
                SC_WARN("sigcompd: accept failed: ", status.message);
            break;
        }
        if (stopRequested())
            break;
        pool.dispatch(std::move(accepted));
    }
    // ~HandlerPool joins every handler, parked or still serving.
}

void
Daemon::serveConn(std::shared_ptr<net::Conn> conn)
{
    answerConn(conn);
    conn->closeConn();
}

void
Daemon::answerConn(const std::shared_ptr<net::Conn> &conn)
{
    activeConns_.set(
        activeConnCount_.fetch_add(1, std::memory_order_relaxed) + 1);
    requests_.inc();

    HttpRequestParser parser;
    HttpRequestParser::Status status =
        HttpRequestParser::Status::NeedMore;
    char buf[4096];
    while (status == HttpRequestParser::Status::NeedMore) {
        std::size_t got = 0;
        const EnvStatus rs = conn->read(buf, sizeof(buf), &got);
        if (!rs.ok() || got == 0) {
            // Transport fault or EOF before a complete request:
            // nobody is listening for a reply.
            status = HttpRequestParser::Status::Error;
            httpErrors_.inc();
            activeConns_.set(activeConnCount_.fetch_sub(
                                 1, std::memory_order_relaxed) -
                             1);
            return;
        }
        status = parser.consume(std::string_view(buf, got));
    }

    if (status == HttpRequestParser::Status::Error) {
        httpErrors_.inc();
        respondError(conn, parser.errorStatusCode(),
                     httpErrorKindName(parser.error().kind),
                     parser.error().render());
    } else {
        handleRequest(conn, parser.request());
    }
    activeConns_.set(
        activeConnCount_.fetch_sub(1, std::memory_order_relaxed) - 1);
}

void
Daemon::handleRequest(const std::shared_ptr<net::Conn> &conn,
                      const HttpRequest &request)
{
    if (request.target == "/healthz") {
        if (request.method != "GET") {
            respondError(conn, 405, "unsupported-method",
                         "/healthz serves GET only");
            return;
        }
        respond(conn, 200, "text/plain", "ok\n");
        return;
    }
    if (request.target == "/statsz") {
        if (request.method != "GET") {
            respondError(conn, 405, "unsupported-method",
                         "/statsz serves GET only");
            return;
        }
        respond(conn, 200, "application/json", statszJson());
        return;
    }
    if (request.target == "/v1/run") {
        if (request.method != "POST") {
            respondError(conn, 405, "unsupported-method",
                         "/v1/run serves POST only");
            return;
        }
        handleRun(conn, request);
        return;
    }
    respondError(conn, 404, "not-found",
                 "unknown target '" + request.target + "'");
}

void
Daemon::handleRun(const std::shared_ptr<net::Conn> &conn,
                  const HttpRequest &request)
{
    std::string tenant = "default";
    if (const std::string *h = request.header("x-sigcomp-tenant");
        h != nullptr) {
        tenant = *h;
    }
    if (!validTenant(tenant)) {
        respondError(conn, 400, "bad-tenant",
                     "tenant must match [a-z0-9_-]{1,64}");
        return;
    }

    PhaseClock clock;
    analysis::StudyPlan plan;
    analysis::PlanError planError;
    const bool parsed =
        analysis::parsePlanJson(request.body, &plan, &planError);
    clock.lap(parseNs_);
    if (!parsed) {
        planErrors_.inc();
        respondError(conn, 400,
                     analysis::planErrorKindName(planError.kind),
                     planError.render());
        return;
    }

    CancelSource cancel;
    plan.cancel(cancel.token());
    const std::uint64_t watchId = watchConn(conn, cancel);
    runs_.inc();
    const analysis::SuiteReport report = tenantSession(tenant).run(plan);
    unwatchConn(watchId);
    clock.lap(runNs_);

    const std::string body = report.toJson();
    clock.lap(serializeNs_);
    respond(conn, report.rejected ? 503 : 200, "application/json", body);
    clock.lap(replyNs_);
}

void
Daemon::respond(const std::shared_ptr<net::Conn> &conn, int status,
                std::string_view contentType, std::string_view body)
{
    const std::string wire =
        httpResponse(status, "", contentType, body);
    // A failed write means the client hung up; the watcher (or the
    // close below) already handles that — nothing to do here.
    (void)conn->writeAll(wire.data(), wire.size());
}

void
Daemon::respondError(const std::shared_ptr<net::Conn> &conn,
                     int status, std::string_view kind,
                     std::string_view message)
{
    std::string body;
    body += "{\n  \"schema\": \"";
    body += kErrorSchemaId;
    body += "\",\n  \"status\": ";
    body += std::to_string(status);
    body += ",\n  \"kind\": \"";
    json::appendEscaped(body, kind);
    body += "\",\n  \"message\": \"";
    json::appendEscaped(body, message);
    body += "\"\n}\n";
    respond(conn, status, "application/json", body);
}

std::string
Daemon::statszJson() const
{
    std::string out;
    out += "{\n  \"schema\": \"";
    out += kStatsSchemaId;
    out += "\",\n  \"tenants\": ";
    {
        MutexLock lock(tenantsMu_);
        out += std::to_string(tenants_.size());
    }
    out += ",\n  \"metrics\": {";
    residentTraces_.set(
        static_cast<std::int64_t>(traces_->residentTraces()));
    residentTraceBytes_.set(
        static_cast<std::int64_t>(traces_->memoryBytes()));
    residentAnnexBytes_.set(
        static_cast<std::int64_t>(traces_->annexBytes()));
    const telemetry::Snapshot snap = registry_.snapshot();
    bool first = true;
    for (const telemetry::SnapshotMetric &m : snap.metrics) {
        if (m.kind == telemetry::Kind::Histogram)
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        json::appendEscaped(out, m.name);
        out += "\": ";
        out += m.kind == telemetry::Kind::Counter
                   ? std::to_string(m.value)
                   : std::to_string(m.gauge);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"active_requests\": ";
    out += std::to_string(
        activeConnCount_.load(std::memory_order_relaxed));
    out += "\n}\n";
    return out;
}

} // namespace sigcomp::server
