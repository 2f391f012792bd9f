#include "flick/descriptor.hh"

#include <array>
#include <cstring>

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
// Slicing-by-8: table k maps a byte to the CRC of that byte followed by
// k zero bytes, so eight table lookups fold in a whole 64-bit word. The
// result is bit-identical to the one-bit-at-a-time loop, which
// tests/descriptor_test.cpp keeps as the reference.
constexpr std::uint64_t crcPoly = 0x42f0e1eba9ea3693ull;

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

std::uint64_t
crc64(const std::uint8_t *p, std::uint64_t len)
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
    put64(&w[checksummedBytes], crc64(w.data(), checksummedBytes));
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
    return crc64(w.data(), checksummedBytes);
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
