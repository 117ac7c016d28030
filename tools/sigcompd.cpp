/**
 * @file
 * sigcompd — the experiment-serving daemon (server/daemon.h) as an
 * operational binary.
 *
 * Usage: sigcompd [--dir DIR] [--addr A] [--port P] [options]
 *
 *   --dir DIR               trace store served to every tenant
 *                           (default trace-store; prewarm it with
 *                           `sigcomp_store prewarm` first)
 *   --addr A                bind address (default 127.0.0.1)
 *   --port P                bind port (default 8642; 0 = ephemeral,
 *                           the chosen port is printed)
 *   --threads N             per-tenant session parallelism, at
 *                           most 1024 (default 0 = every tenant on
 *                           the shared process pool)
 *   --max-instrs N          capture limit (must match the prewarm)
 *   --max-concurrent N      per-tenant concurrent plans (default 2)
 *   --max-queued N          per-tenant admission queue (default 8)
 *
 * Every N is a whole unsigned decimal number; anything else prints
 * the usage text and exits 2. A plan carries its own deadline
 * (deadline_ms); the daemon adds none.
 *
 * Prints "sigcompd: serving on <addr>:<port>" once accepting (the CI
 * smoke job waits for it), then serves until SIGTERM/SIGINT, shuts
 * down cleanly (drains and joins every handler thread) and exits 0.
 * Handler threads are reused: one that has answered its connection
 * parks for the next, and a new thread starts only when none is idle
 * (/statsz: daemon.handler_threads, daemon.handler_spawns).
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unistd.h>

#include "common/json.h"
#include "common/net.h"
#include "common/parallel.h"
#include "server/daemon.h"

namespace
{

using namespace sigcomp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sigcompd [--dir DIR] [--addr A] [--port P]\n"
        "                [--threads N] [--max-instrs N]\n"
        "                [--max-concurrent N] [--max-queued N]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    server::DaemonConfig config;
    config.session.storeDir = "trace-store";
    std::string addr = "127.0.0.1";
    std::uint16_t port = 8642;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // A whole number in [0, max], else the usage text and exit 2.
        auto number = [&](std::uint64_t max) {
            std::uint64_t v = 0;
            if (!json::parseWholeNumber(next(), max, &v))
                std::exit(usage());
            return v;
        };
        if (arg == "--dir")
            config.session.storeDir = next();
        else if (arg == "--addr")
            addr = next();
        else if (arg == "--port")
            port = static_cast<std::uint16_t>(number(65535));
        else if (arg == "--threads") {
            if (!ParallelExecutor::parseThreadCount(
                    next(), &config.session.threads))
                return usage();
        } else if (arg == "--max-instrs")
            config.session.captureLimit = number(UINT64_MAX);
        else if (arg == "--max-concurrent")
            config.session.maxConcurrentPlans =
                static_cast<unsigned>(number(UINT_MAX));
        else if (arg == "--max-queued")
            config.session.maxQueuedPlans =
                static_cast<unsigned>(number(UINT_MAX));
        else
            return usage();
    }

    // Block the shutdown signals BEFORE any thread exists so every
    // thread inherits the mask and only the dedicated sigwait thread
    // ever sees them — no async-signal-safety tightrope.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGINT);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    server::Daemon daemon(config);

    std::string why;
    std::unique_ptr<net::Listener> listener =
        net::listenTcp(addr, port, &why);
    if (listener == nullptr) {
        std::fprintf(stderr, "sigcompd: %s\n", why.c_str());
        return 1;
    }

    std::thread signalThread([&] {
        int sig = 0;
        sigwait(&sigs, &sig);
        std::printf("sigcompd: received %s, shutting down\n",
                    sig == SIGTERM ? "SIGTERM" : "SIGINT");
        std::fflush(stdout);
        daemon.requestStop();
        listener->stopListening();
    });

    std::printf("sigcompd: store %s, serving on %s:%u\n",
                config.session.storeDir.c_str(), addr.c_str(),
                static_cast<unsigned>(listener->port()));
    std::fflush(stdout);

    daemon.serve(*listener);

    // serve() can also end on a listener fault; make a SIGTERM
    // process-pending (raise() would pin it to this thread, where it
    // is blocked) so the sigwait thread always wakes and joins.
    kill(getpid(), SIGTERM);
    signalThread.join();

    std::printf("sigcompd: shutdown complete\n");
    return 0;
}
