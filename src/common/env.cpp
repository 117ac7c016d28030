#include "common/env.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace sigcomp
{

const char *
envFaultName(EnvFault fault)
{
    switch (fault) {
    case EnvFault::None: return "none";
    case EnvFault::NotFound: return "not-found";
    case EnvFault::Transient: return "transient";
    case EnvFault::NoSpace: return "no-space";
    case EnvFault::ReadOnly: return "read-only";
    case EnvFault::Crashed: return "crashed";
    case EnvFault::Other: return "other";
    }
    return "?";
}

namespace
{

/** Map an errno to the recovery-policy fault class. */
EnvFault
classifyErrno(int err)
{
    switch (err) {
    case ENOENT:
    case ENOTDIR:
        return EnvFault::NotFound;
    case EINTR:
    case EAGAIN:
    case EIO:
    case EBUSY:
    case ETIMEDOUT:
        return EnvFault::Transient;
    case ENOSPC:
    case EDQUOT:
    case EFBIG:
        return EnvFault::NoSpace;
    case EROFS:
    case EACCES:
    case EPERM:
        return EnvFault::ReadOnly;
    default:
        return EnvFault::Other;
    }
}

EnvStatus
errnoStatus(const char *op, const std::string &path, int err)
{
    return EnvStatus::error(classifyErrno(err),
                            std::string(op) + " '" + path +
                                "': " + std::strerror(err));
}

void
setStatus(EnvStatus *out, EnvStatus st)
{
    if (out != nullptr)
        *out = std::move(st);
}

/**
 * Private-copy view: the whole file is read into an anonymous mapping
 * at open, so no later change to the file on disk can reach (or
 * fault) its reader, and the copy's pages go back to the system the
 * moment the view dies.
 */
class PosixFileView : public Env::FileView
{
  public:
    PosixFileView(const std::string &path, EnvStatus &st)
    {
        const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0) {
            st = errnoStatus("open", path, errno);
            return;
        }
        struct stat file_stat;
        if (::fstat(fd, &file_stat) != 0 || file_stat.st_size < 0) {
            st = errnoStatus("fstat", path, errno);
            ::close(fd);
            return;
        }
        size_ = static_cast<std::size_t>(file_stat.st_size);
        if (size_ > 0) {
            // Populated up front: one kernel call instead of a page
            // fault per page as read() fills the copy.
            void *m = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE,
                             -1, 0);
            if (m == MAP_FAILED) {
                st = errnoStatus("mmap", path, errno);
                ::close(fd);
                return;
            }
            copy_ = static_cast<std::uint8_t *>(m);
        }
        std::size_t got = 0;
        errno = 0;
        while (got < size_) {
            const ssize_t r = ::read(fd, copy_ + got, size_ - got);
            if (r < 0 && errno == EINTR)
                continue;
            if (r <= 0)
                break;
            got += static_cast<std::size_t>(r);
        }
        ::close(fd);
        ok_ = got == size_;
        if (!ok_)
            st = errnoStatus("read", path, errno ? errno : EIO);
    }

    ~PosixFileView() override
    {
        if (copy_ != nullptr)
            ::munmap(copy_, size_);
    }

    bool ok() const { return ok_; }
    std::size_t size() const override { return size_; }
    const std::uint8_t *data() const override { return copy_; }

  private:
    std::uint8_t *copy_ = nullptr;
    std::size_t size_ = 0;
    bool ok_ = false;
};

class PosixWritableFile : public Env::WritableFile
{
  public:
    PosixWritableFile(int fd, std::string path)
        : fd_(fd), path_(std::move(path))
    {}

    ~PosixWritableFile() override
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    EnvStatus
    append(const void *data, std::size_t n) override
    {
        const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
        while (n > 0) {
            const ssize_t w = ::write(fd_, p, n);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return errnoStatus("write", path_, errno);
            }
            p += static_cast<std::size_t>(w);
            n -= static_cast<std::size_t>(w);
        }
        return EnvStatus::good();
    }

    EnvStatus
    sync() override
    {
        if (::fsync(fd_) != 0)
            return errnoStatus("fsync", path_, errno);
        return EnvStatus::good();
    }

    EnvStatus
    close() override
    {
        if (fd_ < 0)
            return EnvStatus::good();
        const int fd = fd_;
        fd_ = -1;
        if (::close(fd) != 0)
            return errnoStatus("close", path_, errno);
        return EnvStatus::good();
    }

  private:
    int fd_;
    std::string path_;
};

class PosixEnv : public Env
{
  public:
    std::unique_ptr<FileView>
    loadFile(const std::string &path, EnvStatus *status) override
    {
        EnvStatus st;
        auto view = std::make_unique<PosixFileView>(path, st);
        if (!view->ok()) {
            setStatus(status, std::move(st));
            return nullptr;
        }
        setStatus(status, EnvStatus::good());
        return view;
    }

    std::unique_ptr<WritableFile>
    createFile(const std::string &path, EnvStatus *status) override
    {
        const int fd = ::open(path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                              0644);
        if (fd < 0) {
            setStatus(status, errnoStatus("create", path, errno));
            return nullptr;
        }
        setStatus(status, EnvStatus::good());
        return std::make_unique<PosixWritableFile>(fd, path);
    }

    EnvStatus
    renameFile(const std::string &from, const std::string &to) override
    {
        if (::rename(from.c_str(), to.c_str()) != 0)
            return errnoStatus("rename", from, errno);
        return EnvStatus::good();
    }

    EnvStatus
    removeFile(const std::string &path) override
    {
        if (::unlink(path.c_str()) != 0)
            return errnoStatus("unlink", path, errno);
        return EnvStatus::good();
    }

    bool
    fileExists(const std::string &path) override
    {
        struct stat file_stat;
        return ::stat(path.c_str(), &file_stat) == 0;
    }

    EnvStatus
    createDirs(const std::string &dir) override
    {
        // mkdir -p: create each '/'-separated prefix in turn.
        std::string prefix;
        prefix.reserve(dir.size());
        std::size_t i = 0;
        while (i < dir.size()) {
            std::size_t j = dir.find('/', i);
            if (j == std::string::npos)
                j = dir.size();
            prefix.assign(dir, 0, j);
            i = j + 1;
            if (prefix.empty())
                continue; // leading '/' of an absolute path
            if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
                return errnoStatus("mkdir", prefix, errno);
        }
        struct stat dir_stat;
        if (::stat(dir.c_str(), &dir_stat) != 0 ||
            !S_ISDIR(dir_stat.st_mode)) {
            return EnvStatus::error(EnvFault::Other,
                                    "mkdir '" + dir +
                                        "': not a directory");
        }
        return EnvStatus::good();
    }

    std::vector<std::string>
    listDir(const std::string &dir, EnvStatus *status) override
    {
        std::vector<std::string> names;
        DIR *d = ::opendir(dir.c_str());
        if (d == nullptr) {
            setStatus(status, errnoStatus("opendir", dir, errno));
            return names;
        }
        while (const struct dirent *e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..")
                names.push_back(name);
        }
        ::closedir(d);
        std::sort(names.begin(), names.end());
        setStatus(status, EnvStatus::good());
        return names;
    }

    EnvStatus
    syncDir(const std::string &dir) override
    {
        const int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
        if (fd < 0)
            return errnoStatus("open dir", dir, errno);
        const bool ok = ::fsync(fd) == 0;
        const int err = errno;
        ::close(fd);
        if (!ok)
            return errnoStatus("fsync dir", dir, err);
        return EnvStatus::good();
    }
};

} // namespace

Env &
Env::posix()
{
    static PosixEnv env;
    return env;
}

} // namespace sigcomp
