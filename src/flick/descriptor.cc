#include "flick/descriptor.hh"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "sim/logging.hh"

namespace flick
{

namespace
{

void
put64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
get64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(p[i]) << (8 * i);
    return v;
}

// CRC-64/ECMA-182 (polynomial 0x42f0e1eba9ea3693, MSB first), init 0,
// no final xor. The zero init keeps the all-zero descriptor's wire image
// all zeroes (an untouched mailbox slot checks out as intact-but-invalid
// rather than corrupt), while any single-bit flip in either the payload
// or the stored checksum is guaranteed to be detected.
//
// Two implementations give bit-identical results, which
// tests/descriptor_test.cpp checks against a one-bit-at-a-time loop:
// PCLMULQDQ folding on x86-64 hosts that have it, slicing-by-8 on the
// rest.
constexpr std::uint64_t crcPoly = 0x42f0e1eba9ea3693ull;

// Slicing-by-8: table k maps a byte to the CRC of that byte followed by
// k zero bytes, so eight table lookups fold in a whole 64-bit word.
using CrcTables = std::array<std::array<std::uint64_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (unsigned b = 0; b < 256; ++b) {
        std::uint64_t crc = std::uint64_t(b) << 56;
        for (int i = 0; i < 8; ++i)
            crc = (crc & (1ull << 63)) ? (crc << 1) ^ crcPoly : crc << 1;
        t[0][b] = crc;
    }
    for (unsigned k = 1; k < 8; ++k)
        for (unsigned b = 0; b < 256; ++b)
            t[k][b] = t[0][t[k - 1][b] >> 56] ^ (t[k - 1][b] << 8);
    return t;
}

constexpr CrcTables crcTables = makeCrcTables();

// Folding constants, as polynomials over GF(2) with bit k the
// coefficient of x^k and P = x^64 + crcPoly.

/** x^n mod P, for n >= 64. */
constexpr std::uint64_t
xPowModP(unsigned n)
{
    std::uint64_t r = crcPoly; // x^64 mod P
    for (unsigned i = 64; i < n; ++i)
        r = (r << 1) ^ ((r >> 63) ? crcPoly : 0);
    return r;
}

/** floor(x^128 / P) without its x^64 term, by long division. */
constexpr std::uint64_t
barrettMu()
{
    // x^128 - x^64 P leaves x^64 crcPoly. Each set bit 64 + i of the
    // remainder adds x^i to the quotient and subtracts x^i P; the part
    // of x^i P below bit 64 never reaches a later quotient bit.
    std::uint64_t hi = crcPoly, q = 0;
    for (int i = 63; i >= 0; --i) {
        if (!((hi >> i) & 1))
            continue;
        q |= 1ull << i;
        hi ^= 1ull << i; // x^(64+i)
        if (i)
            hi ^= crcPoly >> (64 - i); // x^i crcPoly from bit 64 up
    }
    return q;
}

constexpr std::uint64_t foldBy192 = xPowModP(192);
constexpr std::uint64_t foldBy128 = xPowModP(128);
constexpr std::uint64_t mu = barrettMu();

#if defined(__x86_64__)
// Chosen once from the CPU. Code that runs before this initializer sees
// false and takes slicing-by-8, which gives the same CRC.
const bool havePclmul = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("ssse3");
}();

std::uint64_t
low64(__m128i v)
{
    return static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
}

std::uint64_t
high64(__m128i v)
{
    return low64(_mm_unpackhi_epi64(v, v));
}
#endif

} // namespace

namespace descriptor_crc
{

std::uint64_t
slicingBy8(const std::uint8_t *p, std::size_t len)
{
    std::uint64_t crc = 0;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t x = crc;
        for (int i = 0; i < 8; ++i)
            x ^= std::uint64_t(p[i]) << (56 - 8 * i);
        crc = crcTables[7][x >> 56] ^ crcTables[6][(x >> 48) & 0xff] ^
              crcTables[5][(x >> 40) & 0xff] ^
              crcTables[4][(x >> 32) & 0xff] ^
              crcTables[3][(x >> 24) & 0xff] ^
              crcTables[2][(x >> 16) & 0xff] ^
              crcTables[1][(x >> 8) & 0xff] ^ crcTables[0][x & 0xff];
    }
    for (; len > 0; ++p, --len)
        crc = crcTables[0][(crc >> 56) ^ *p] ^ (crc << 8);
    return crc;
}

#if defined(__x86_64__)

bool
pclmulAvailable()
{
    return havePclmul;
}

__attribute__((target("pclmul,ssse3"))) std::uint64_t
pclmulFold(const std::uint8_t *p)
{
    // Leading zero bytes do not change a zero-init CRC, so the image is
    // read as 8 zero bytes plus the 120 data bytes: eight 16-byte blocks,
    // each loaded most significant byte first.
    static_assert(MigrationDescriptor::checksummedBytes == 120);
    const __m128i reverse =
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    const __m128i fold = _mm_set_epi64x(static_cast<long long>(foldBy192),
                                        static_cast<long long>(foldBy128));
    const __m128i barrett = _mm_set_epi64x(static_cast<long long>(crcPoly),
                                           static_cast<long long>(mu));
    std::uint64_t head;
    std::memcpy(&head, p, 8);
    __m128i acc =
        _mm_cvtsi64_si128(static_cast<long long>(__builtin_bswap64(head)));
    // acc = H x^64 + L; acc x^128 = H x^192 + L x^128, so the next block
    // adds to H (x^192 mod P) + L (x^128 mod P), 128 bits again.
    for (unsigned i = 8; i < 120; i += 16) {
        __m128i block = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + i)),
            reverse);
        acc = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, fold,
                                                               0x11),
                                          _mm_clmulepi64_si128(acc, fold,
                                                               0x00)),
                            block);
    }
    // The CRC is acc x^64 mod P. Fold H once more: H x^128 + L x^64 is
    // R = Rh x^64 + Rl, congruent and 128 bits long.
    __m128i h = _mm_clmulepi64_si128(acc, fold, 0x01);
    std::uint64_t r_lo = low64(h);
    std::uint64_t r_hi = high64(h) ^ low64(acc);
    // One Barrett step: q = floor(Rh (x^64 + mu) / x^64), and
    // Rh x^64 mod P is the low half of q crcPoly.
    __m128i t = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(r_hi)), barrett, 0x00);
    std::uint64_t q = high64(t) ^ r_hi;
    __m128i qp = _mm_clmulepi64_si128(
        _mm_cvtsi64_si128(static_cast<long long>(q)), barrett, 0x10);
    return low64(qp) ^ r_lo;
}

#else

bool
pclmulAvailable()
{
    return false;
}

std::uint64_t
pclmulFold(const std::uint8_t *)
{
    panic("PCLMULQDQ CRC folding is built only for x86-64 hosts");
}

#endif

} // namespace descriptor_crc

namespace
{

/** CRC of a wire image's checksummed prefix. */
std::uint64_t
crc64(const MigrationDescriptor::Wire &w)
{
#if defined(__x86_64__)
    if (havePclmul)
        return descriptor_crc::pclmulFold(w.data());
#endif
    return descriptor_crc::slicingBy8(w.data(),
                                      MigrationDescriptor::checksummedBytes);
}

} // namespace

const char *
descriptorKindName(DescriptorKind kind)
{
    switch (kind) {
      case DescriptorKind::invalid: return "invalid";
      case DescriptorKind::hostToNxpCall: return "hostToNxpCall";
      case DescriptorKind::nxpToHostCall: return "nxpToHostCall";
      case DescriptorKind::hostToNxpReturn: return "hostToNxpReturn";
      case DescriptorKind::nxpToHostReturn: return "nxpToHostReturn";
    }
    return "?";
}

MigrationDescriptor::Wire
MigrationDescriptor::toWire() const
{
    Wire w{};
    put64(&w[0], (std::uint64_t(pid) << 32) |
                     static_cast<std::uint32_t>(kind));
    put64(&w[8], target);
    put64(&w[16], cr3);
    put64(&w[24], nxpSp);
    put64(&w[32], retval);
    put64(&w[40], nargs);
    for (unsigned i = 0; i < maxArgs; ++i)
        put64(&w[48 + 8 * i], args[i]);
    put64(&w[96], seq);
    put64(&w[104], callId);
    put64(&w[checksummedBytes], crc64(w));
    return w;
}

MigrationDescriptor
MigrationDescriptor::fromWire(const Wire &w)
{
    MigrationDescriptor d;
    std::uint64_t head = get64(&w[0]);
    d.kind = static_cast<DescriptorKind>(head & 0xffffffffu);
    d.pid = static_cast<std::uint32_t>(head >> 32);
    d.target = get64(&w[8]);
    d.cr3 = get64(&w[16]);
    d.nxpSp = get64(&w[24]);
    d.retval = get64(&w[32]);
    d.nargs = static_cast<std::uint32_t>(get64(&w[40]));
    for (unsigned i = 0; i < maxArgs; ++i)
        d.args[i] = get64(&w[48 + 8 * i]);
    d.seq = get64(&w[96]);
    d.callId = get64(&w[104]);
    return d;
}

std::uint64_t
MigrationDescriptor::wireChecksum(const Wire &w)
{
    return crc64(w);
}

bool
MigrationDescriptor::wireIntact(const Wire &w)
{
    // Range-check the fields a receiver indexes or switches on: a
    // checksum-valid image can still carry an out-of-range argument
    // count or kind (a buggy or hostile sender), and accepting it would
    // read past args[] or hit an unknown-kind panic. Such a slot is
    // NAKed and replayed like a corrupt one.
    const std::uint64_t kind = get64(&w[0]) & 0xffffffffu;
    if (get64(&w[40]) > maxArgs ||
        kind > static_cast<std::uint32_t>(DescriptorKind::nxpToHostReturn))
        return false;
    return get64(&w[checksummedBytes]) == wireChecksum(w);
}

} // namespace flick
