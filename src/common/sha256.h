/**
 * @file
 * SHA-256 (FIPS 180-4), dependency-free: the digest behind
 * analysis::planFingerprint, a plan's content address.
 *
 * CRC-32 (common/crc32.h) guards bytes against *accidental* damage;
 * a content address needs a digest whose collisions are not a
 * practical concern, because two distinct plans hashing to one key
 * would be taken for one plan. The inputs are kilobyte-scale
 * canonical JSON documents; the portable compression function is the
 * reference, and CPUs with the SHA extensions take a SHA-NI path
 * that hashes alike. Both are verified against the FIPS test vectors
 * in tests/test_server.cpp.
 */

#ifndef SIGCOMP_COMMON_SHA256_H_
#define SIGCOMP_COMMON_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sigcomp
{

/** Incremental SHA-256 hasher (update any number of times). */
class Sha256
{
  public:
    Sha256();

    /** Absorb @p n bytes. */
    void update(const void *data, std::size_t n);

    void
    update(std::string_view s)
    {
        update(s.data(), s.size());
    }

    /**
     * Finalize and return the 32-byte digest. The hasher is spent
     * afterwards; construct a fresh one for the next message.
     */
    std::array<std::uint8_t, 32> digest();

    /** digest() as 64 lowercase hex characters. */
    std::string hexDigest();

    /** One-shot convenience: hex digest of @p s. */
    static std::string hex(std::string_view s);

  private:
    void compress(const std::uint8_t block[64]);

    std::array<std::uint32_t, 8> state_;
    std::uint64_t totalBytes_ = 0;
    std::array<std::uint8_t, 64> buf_{};
    std::size_t bufLen_ = 0;
};

} // namespace sigcomp

#endif // SIGCOMP_COMMON_SHA256_H_
