#include "harness.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/net.h"
#include "common/sha256.h"

namespace perfbench
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
nowSec()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

// ---- samples ------------------------------------------------------------

double
Samples::quantile(double q) const
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const double rank = std::ceil(q * static_cast<double>(s.size()));
    const std::size_t i =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return s[std::min(i, s.size() - 1)];
}

double
Samples::median() const
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double
Samples::tail(double *pct) const
{
    const std::size_t n = v.size();
    if (n == 0) {
        *pct = 0.0;
        return 0.0;
    }
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    if (n >= 1000) {
        *pct = 99.0;
        return quantile(0.99);
    }
    if (n <= 20) {
        // No percentile above the median has ten samples beyond it.
        *pct = 50.0;
        return median();
    }
    *pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return s[n - 11];
}

// ---- tracer -------------------------------------------------------------

int
Tracer::open(const std::string &name, int op)
{
    Span s;
    s.name = name;
    s.op = op;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::map<std::string, double>
Tracer::selfMs(int op) const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.endNs - s.startNs) * 1e-6;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.op != op)
            continue;
        out[s.name] +=
            static_cast<double>(s.endNs - s.startNs) * 1e-6 - child[i];
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    std::fputs("{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n"
               "{\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": "
               "\"thread_name\", \"args\": {\"name\": \"perfbench\"}}",
               f);
    for (const Span &s : spans_) {
        std::fprintf(f,
                     ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                     "\"ts\": %lld.%03lld, \"dur\": %lld.%03lld, "
                     "\"cat\": \"perfbench\", \"name\": \"%s\", "
                     "\"args\": {\"op\": %d, \"parent\": %d}}",
                     static_cast<long long>((s.startNs - origin) / 1000),
                     static_cast<long long>((s.startNs - origin) % 1000),
                     static_cast<long long>((s.endNs - s.startNs) / 1000),
                     static_cast<long long>((s.endNs - s.startNs) % 1000),
                     s.name.c_str(), s.op, s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

// ---- output check -------------------------------------------------------

std::string
rowsDigest(const std::string &reportJson)
{
    static const char *const kRunDependent[] = {
        "  \"threads\":", "  \"engine\":", "  \"health\":",
        "  \"telemetry\":"};
    sigcomp::Sha256 h;
    std::size_t pos = 0;
    while (pos < reportJson.size()) {
        std::size_t end = reportJson.find('\n', pos);
        if (end == std::string::npos)
            end = reportJson.size();
        const std::string_view line(reportJson.data() + pos, end - pos);
        bool keep = true;
        for (const char *p : kRunDependent)
            keep = keep && !line.starts_with(p);
        if (keep) {
            h.update(line);
            h.update("\n");
        }
        pos = end + 1;
    }
    return h.hexDigest();
}

// ---- /proc --------------------------------------------------------------

namespace
{

std::string
procPath(pid_t pid, const char *leaf)
{
    return pid == 0 ? std::string("/proc/self/") + leaf
                    : "/proc/" + std::to_string(pid) + "/" + leaf;
}

} // namespace

double
peakRssMb(pid_t pid)
{
    std::ifstream in(procPath(pid, "status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

void
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

double
cpuSeconds(pid_t pid)
{
    std::ifstream in(procPath(pid, "stat"));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    // Fields after the command: state is field 3; utime/stime are
    // fields 14 and 15.
    for (int i = 3; i <= 15 && (fields >> field); ++i) {
        if (i == 14)
            utime = std::strtoull(field.c_str(), nullptr, 10);
        if (i == 15)
            stime = std::strtoull(field.c_str(), nullptr, 10);
    }
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
processCpuSec()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- sigcompd child -----------------------------------------------------

bool
Daemon::start(const std::string &exe, const std::vector<std::string> &args,
              std::string *why)
{
    int fds[2];
    if (pipe(fds) != 0) {
        *why = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    std::vector<std::string> argvStr = {exe};
    argvStr.insert(argvStr.end(), args.begin(), args.end());
    argvStr.push_back("--port");
    argvStr.push_back("0");
    std::vector<char *> argv;
    for (std::string &a : argvStr)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    pid_ = fork();
    if (pid_ < 0) {
        *why = std::string("fork: ") + std::strerror(errno);
        return false;
    }
    if (pid_ == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        execv(argv[0], argv.data());
        _exit(127);
    }
    close(fds[1]);
    outFd_ = fds[0];
    reader_ = std::thread([this] {
        char buf[4096];
        for (;;) {
            const ssize_t n = read(outFd_, buf, sizeof buf);
            if (n <= 0)
                break;
            std::lock_guard<std::mutex> lock(mu_);
            log_.append(buf, static_cast<std::size_t>(n));
        }
    });

    const double deadline = nowSec() + 120.0;
    while (nowSec() < deadline) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            const std::size_t at = log_.find("serving on ");
            if (at != std::string::npos) {
                const std::size_t colon = log_.find(':', at + 11);
                const std::size_t eol = log_.find('\n', at);
                if (colon != std::string::npos && eol != std::string::npos) {
                    port_ = static_cast<unsigned>(
                        std::atoi(log_.c_str() + colon + 1));
                    return port_ != 0;
                }
            }
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            *why = "sigcompd exited before serving";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *why = "sigcompd did not start serving within 120 s";
    return false;
}

bool
Daemon::stop(std::string *why)
{
    if (pid_ <= 0) {
        *why = "sigcompd not running";
        return false;
    }
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    if (reader_.joinable())
        reader_.join();
    close(outFd_);
    outFd_ = -1;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const bool logged = log_.find("shutdown complete") != std::string::npos;
    if (!clean || !logged) {
        *why = std::string("sigcompd shutdown: ") +
               (clean ? "no 'shutdown complete' line" : "non-zero exit");
        return false;
    }
    return true;
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        kill(pid_, SIGKILL);
        int status = 0;
        waitpid(pid_, &status, 0);
    }
    if (reader_.joinable())
        reader_.join();
    if (outFd_ >= 0)
        close(outFd_);
}

// ---- HTTP client --------------------------------------------------------

std::string
httpRequest(const std::string &method, const std::string &target,
            const std::string &body, const std::string &tenant)
{
    std::string wire = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!tenant.empty())
        wire += "X-Sigcomp-Tenant: " + tenant + "\r\n";
    if (method == "POST") {
        wire += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n";
    }
    return wire + "\r\n" + body;
}

HttpReply
httpCall(unsigned port, const std::string &method, const std::string &target,
         const std::string &body, const std::string &tenant)
{
    HttpReply reply;
    std::unique_ptr<sigcomp::net::Conn> conn = sigcomp::net::connectTcp(
        "127.0.0.1", static_cast<std::uint16_t>(port));
    if (conn == nullptr)
        return reply;
    const std::string wire = httpRequest(method, target, body, tenant);
    if (!conn->writeAll(wire.data(), wire.size()).ok())
        return reply;
    std::string in;
    char buf[16384];
    for (;;) {
        std::size_t got = 0;
        if (!conn->read(buf, sizeof buf, &got).ok())
            return reply;
        if (got == 0)
            break;
        in.append(buf, got);
    }
    const std::size_t sp = in.find(' ');
    const std::size_t hdrEnd = in.find("\r\n\r\n");
    if (sp == std::string::npos || hdrEnd == std::string::npos)
        return reply;
    reply.status = std::atoi(in.c_str() + sp + 1);
    reply.body = in.substr(hdrEnd + 4);
    return reply;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char num[32];
        std::snprintf(num, sizeof num, "%s%.3f", i ? ", " : "", v[i]);
        out += num;
    }
    return out + "]";
}

long long
jsonInt(const std::string &json, const std::string &name)
{
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = json.find(key);
    if (at == std::string::npos)
        return 0;
    return std::strtoll(json.c_str() + at + key.size(), nullptr, 10);
}

// ---- result line --------------------------------------------------------

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, vu] : metrics) {
        char num[64];
        const double v = std::isfinite(vu.first) ? vu.first : 0.0;
        std::snprintf(num, sizeof num, "%.17g", v);
        out += first ? "" : ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               vu.second + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
