/**
 * @file
 * sigcomp_client — the CLI peer of sigcompd.
 *
 * Usage:
 *   sigcomp_client run PLAN.json [options]    POST the plan to /v1/run
 *   sigcomp_client get /healthz|/statsz [options]
 *
 * Options:
 *   --addr A        daemon address (default 127.0.0.1)
 *   --port P        daemon port (default 8642)
 *   --tenant T      X-Sigcomp-Tenant header value
 *   --out FILE      write the response body there (default stdout)
 *   --zero-wall     rewrite "wall_ms": <n> to 0.000 in the body —
 *                   the one nondeterministic field in a report, so
 *                   CI can diff responses against a golden file
 *   --retry N       retry the connection up to N times, 100 ms
 *                   apart (waiting out a daemon that is still
 *                   starting)
 *
 * Exit status: 0 on HTTP 200, 1 on any other status or transport
 * failure, 2 on usage errors. The response body is emitted either
 * way (an error body is sigcomp-daemon-error-v1 JSON).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "analysis/report.h"
#include "common/net.h"

namespace
{

using namespace sigcomp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sigcomp_client run PLAN.json [--addr A] [--port P]\n"
        "                      [--tenant T] [--out FILE] [--zero-wall]\n"
        "                      [--retry N]\n"
        "       sigcomp_client get /healthz|/statsz [same options]\n");
    return 2;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, got);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    return ok;
}

/**
 * One request/response exchange. Returns the HTTP status (0 on
 * transport failure with *why set).
 */
int
exchange(const std::string &addr, unsigned port,
         const std::string &request, std::string *body,
         std::string *why)
{
    std::unique_ptr<net::Conn> conn =
        net::connectTcp(addr, static_cast<std::uint16_t>(port), why);
    if (conn == nullptr)
        return 0;
    EnvStatus status = conn->writeAll(request.data(), request.size());
    if (!status.ok()) {
        *why = status.message;
        return 0;
    }
    std::string response;
    char buf[4096];
    for (;;) {
        std::size_t got = 0;
        status = conn->read(buf, sizeof(buf), &got);
        if (!status.ok()) {
            *why = status.message;
            return 0;
        }
        if (got == 0)
            break; // orderly EOF: the daemon closes after one reply
        response.append(buf, got);
    }
    // Minimal response parse: "HTTP/1.1 NNN ...\r\n...\r\n\r\n<body>".
    if (response.size() < 13 || response.compare(0, 5, "HTTP/") != 0) {
        *why = "malformed response";
        return 0;
    }
    const std::size_t sp = response.find(' ');
    if (sp == std::string::npos || sp + 4 > response.size()) {
        *why = "malformed status line";
        return 0;
    }
    const int code = std::atoi(response.c_str() + sp + 1);
    const std::size_t blank = response.find("\r\n\r\n");
    if (blank == std::string::npos) {
        *why = "missing header terminator";
        return 0;
    }
    *body = response.substr(blank + 4);
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string command = argv[1];
    const std::string operand = argv[2];

    std::string addr = "127.0.0.1";
    unsigned port = 8642;
    std::string tenant;
    std::string outPath;
    bool zeroWall = false;
    unsigned retries = 0;

    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--addr")
            addr = next();
        else if (arg == "--port")
            port = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--tenant")
            tenant = next();
        else if (arg == "--out")
            outPath = next();
        else if (arg == "--zero-wall")
            zeroWall = true;
        else if (arg == "--retry")
            retries = static_cast<unsigned>(std::atoi(next()));
        else
            return usage();
    }

    std::string request;
    if (command == "run") {
        std::string plan;
        if (!readFile(operand, &plan)) {
            std::fprintf(stderr, "cannot read %s\n", operand.c_str());
            return 2;
        }
        request = "POST /v1/run HTTP/1.1\r\nHost: sigcompd\r\n";
        if (!tenant.empty())
            request += "X-Sigcomp-Tenant: " + tenant + "\r\n";
        request += "Content-Length: " + std::to_string(plan.size()) +
                   "\r\n\r\n" + plan;
    } else if (command == "get") {
        if (operand.empty() || operand[0] != '/')
            return usage();
        request = "GET " + operand + " HTTP/1.1\r\nHost: sigcompd\r\n";
        if (!tenant.empty())
            request += "X-Sigcomp-Tenant: " + tenant + "\r\n";
        request += "\r\n";
    } else {
        return usage();
    }

    std::string body;
    std::string why;
    int code = 0;
    for (unsigned attempt = 0;; ++attempt) {
        code = exchange(addr, port, request, &body, &why);
        if (code != 0 || attempt >= retries)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (code == 0) {
        std::fprintf(stderr, "sigcomp_client: %s\n", why.c_str());
        return 1;
    }

    if (zeroWall)
        body = analysis::zeroWallMs(body);

    if (outPath.empty()) {
        std::fwrite(body.data(), 1, body.size(), stdout);
    } else {
        std::FILE *f = std::fopen(outPath.c_str(), "wb");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
            return 1;
        }
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
    }
    if (code != 200) {
        std::fprintf(stderr, "sigcomp_client: HTTP %d\n", code);
        return 1;
    }
    return 0;
}
