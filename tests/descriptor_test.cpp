/**
 * @file
 * Unit tests for migration descriptors: wire-format round trips, the
 * integrity fields (sequence number, CRC-64 checksum) receivers use to
 * reject corrupted bursts, and the CRC itself pinned against a bitwise
 * reference and known answers (the self-consistency tests alone would
 * pass a wrong but consistent table).
 */

#include <gtest/gtest.h>

#include "flick/descriptor.hh"
#include "sim/random.hh"

namespace flick
{
namespace
{

/**
 * Reference CRC-64/ECMA-182: MSB first, polynomial 0x42f0e1eba9ea3693,
 * init 0, no final xor, one bit at a time. The descriptor's table-driven
 * CRC must agree with it on every input.
 */
std::uint64_t
referenceCrc64(const std::uint8_t *p, std::size_t len)
{
    constexpr std::uint64_t poly = 0x42f0e1eba9ea3693ull;
    std::uint64_t crc = 0;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= std::uint64_t(p[i]) << 56;
        for (int b = 0; b < 8; ++b)
            crc = (crc & (1ull << 63)) ? (crc << 1) ^ poly : crc << 1;
    }
    return crc;
}

TEST(DescriptorCrc, ReferenceGivesStandardCheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(referenceCrc64(reinterpret_cast<const std::uint8_t *>(check),
                             9),
              0x6c40df5f0b497347ull);
}

TEST(DescriptorCrc, KnownAnswerForCountingImage)
{
    MigrationDescriptor::Wire w{};
    for (unsigned i = 0; i < w.size(); ++i)
        w[i] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(MigrationDescriptor::wireChecksum(w), 0xdf2eec1d3c0702e4ull);
    EXPECT_EQ(referenceCrc64(w.data(), MigrationDescriptor::checksummedBytes),
              0xdf2eec1d3c0702e4ull);
}

TEST(DescriptorCrc, TableMatchesReferenceOnRandomImages)
{
    Rng rng(0xc4c64);
    MigrationDescriptor::Wire w{};
    for (int trial = 0; trial < 10000; ++trial) {
        for (auto &b : w)
            b = static_cast<std::uint8_t>(rng.next());
        ASSERT_EQ(MigrationDescriptor::wireChecksum(w),
                  referenceCrc64(w.data(),
                                 MigrationDescriptor::checksummedBytes))
            << "trial " << trial;
    }
}

/**
 * Each CRC implementation against the bitwise reference: 10 000 random
 * images, then every single-bit flip of one image (a flip the checksum
 * is meant to catch, so a path wrong only there would matter most).
 */
void
expectMatchesReference(std::uint64_t (*crc)(const MigrationDescriptor::Wire &))
{
    constexpr std::size_t n = MigrationDescriptor::checksummedBytes;
    Rng rng(0xc4c64);
    MigrationDescriptor::Wire w{};
    for (int trial = 0; trial < 10000; ++trial) {
        for (auto &b : w)
            b = static_cast<std::uint8_t>(rng.next());
        ASSERT_EQ(crc(w), referenceCrc64(w.data(), n)) << "trial " << trial;
    }
    for (std::size_t bit = 0; bit < 8 * n; ++bit) {
        w[bit / 8] ^= std::uint8_t(1u << (bit % 8));
        ASSERT_EQ(crc(w), referenceCrc64(w.data(), n)) << "bit " << bit;
        w[bit / 8] ^= std::uint8_t(1u << (bit % 8));
    }
}

TEST(DescriptorCrc, SlicingBy8MatchesReference)
{
    expectMatchesReference([](const MigrationDescriptor::Wire &w) {
        return descriptor_crc::slicingBy8(
            w.data(), MigrationDescriptor::checksummedBytes);
    });
}

TEST(DescriptorCrc, PclmulFoldMatchesReference)
{
    if (!descriptor_crc::pclmulAvailable())
        GTEST_SKIP() << "this host has no PCLMULQDQ";
    expectMatchesReference([](const MigrationDescriptor::Wire &w) {
        return descriptor_crc::pclmulFold(w.data());
    });
    // The counting image's known answer (KnownAnswerForCountingImage).
    MigrationDescriptor::Wire w{};
    for (unsigned i = 0; i < w.size(); ++i)
        w[i] = static_cast<std::uint8_t>(i);
    EXPECT_EQ(descriptor_crc::pclmulFold(w.data()), 0xdf2eec1d3c0702e4ull);
}

/**
 * The checksum covers the bytes, not their meaning: a sender can emit a
 * CRC-valid image whose argument count overruns args[] or whose kind
 * no receiver knows. wireIntact() is the receivers' only gate, so it
 * must reject both; the slot is then NAKed and replayed.
 */
TEST(Descriptor, OutOfRangeFieldsAreNotIntact)
{
    MigrationDescriptor d;
    d.kind = DescriptorKind::hostToNxpCall;
    d.nargs = 200;
    EXPECT_FALSE(MigrationDescriptor::wireIntact(d.toWire()));
    d.nargs = MigrationDescriptor::maxArgs;
    EXPECT_TRUE(MigrationDescriptor::wireIntact(d.toWire()));
    d.kind = static_cast<DescriptorKind>(9);
    EXPECT_FALSE(MigrationDescriptor::wireIntact(d.toWire()));
    d.kind = DescriptorKind::nxpToHostReturn;
    EXPECT_TRUE(MigrationDescriptor::wireIntact(d.toWire()));
}

TEST(Descriptor, WireSizeMatchesBurst)
{
    MigrationDescriptor d;
    EXPECT_EQ(d.toWire().size(), MigrationDescriptor::wireBytes);
    EXPECT_EQ(MigrationDescriptor::wireBytes, 128u);
}

TEST(Descriptor, RoundTripAllFields)
{
    MigrationDescriptor d;
    d.kind = DescriptorKind::nxpToHostCall;
    d.pid = 4242;
    d.target = 0x400123;
    d.cr3 = 0x7f000;
    d.nxpSp = 0x4000010000ull;
    d.retval = 0xdeadbeef;
    d.nargs = 6;
    for (unsigned i = 0; i < 6; ++i)
        d.args[i] = 0x1111111111111111ull * (i + 1);

    MigrationDescriptor e = MigrationDescriptor::fromWire(d.toWire());
    EXPECT_EQ(e.kind, d.kind);
    EXPECT_EQ(e.pid, d.pid);
    EXPECT_EQ(e.target, d.target);
    EXPECT_EQ(e.cr3, d.cr3);
    EXPECT_EQ(e.nxpSp, d.nxpSp);
    EXPECT_EQ(e.retval, d.retval);
    EXPECT_EQ(e.nargs, d.nargs);
    EXPECT_EQ(e.args, d.args);
}

class DescriptorProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DescriptorProperty, RandomRoundTrip)
{
    Rng rng(GetParam());
    MigrationDescriptor d;
    d.kind = static_cast<DescriptorKind>(1 + rng.below(4));
    d.pid = static_cast<std::uint32_t>(rng.next());
    d.target = rng.next();
    d.cr3 = rng.next();
    d.nxpSp = rng.next();
    d.retval = rng.next();
    d.nargs = static_cast<std::uint32_t>(rng.below(7));
    for (auto &a : d.args)
        a = rng.next();
    d.seq = rng.next();
    MigrationDescriptor e = MigrationDescriptor::fromWire(d.toWire());
    EXPECT_EQ(e.kind, d.kind);
    EXPECT_EQ(e.pid, d.pid);
    EXPECT_EQ(e.target, d.target);
    EXPECT_EQ(e.cr3, d.cr3);
    EXPECT_EQ(e.nxpSp, d.nxpSp);
    EXPECT_EQ(e.retval, d.retval);
    EXPECT_EQ(e.nargs, d.nargs);
    EXPECT_EQ(e.args, d.args);
    EXPECT_EQ(e.seq, d.seq);
}

/** A freshly serialized descriptor always passes the integrity check. */
TEST_P(DescriptorProperty, FreshWireIsIntact)
{
    Rng rng(GetParam() + 1000);
    MigrationDescriptor d;
    d.kind = static_cast<DescriptorKind>(1 + rng.below(4));
    d.pid = static_cast<std::uint32_t>(rng.next());
    d.target = rng.next();
    d.retval = rng.next();
    d.nargs = static_cast<std::uint32_t>(rng.below(7));
    for (auto &a : d.args)
        a = rng.next();
    d.seq = rng.next();
    EXPECT_TRUE(MigrationDescriptor::wireIntact(d.toWire()))
        << "seed " << GetParam();
}

/**
 * Every single-bit flip anywhere in the 128-byte wire image must fail
 * the checksum: a flip in the covered prefix changes the computed CRC,
 * and a flip in the stored checksum mismatches the (unchanged) computed
 * one. This is the property the NAK/retransmit protocol relies on.
 */
TEST_P(DescriptorProperty, AnySingleBitFlipDetected)
{
    Rng rng(GetParam() + 2000);
    MigrationDescriptor d;
    d.kind = DescriptorKind::hostToNxpCall;
    d.pid = static_cast<std::uint32_t>(rng.next());
    d.target = rng.next();
    d.nargs = 6;
    for (auto &a : d.args)
        a = rng.next();
    d.seq = 1 + rng.below(1 << 20);
    const auto clean = d.toWire();
    ASSERT_TRUE(MigrationDescriptor::wireIntact(clean));
    for (unsigned bit = 0; bit < MigrationDescriptor::wireBytes * 8; ++bit) {
        auto w = clean;
        w[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(MigrationDescriptor::wireIntact(w))
            << "seed " << GetParam() << ", undetected flip of bit " << bit;
    }
}

/** Multi-bit bursts of the width the chaos engine injects are caught. */
TEST_P(DescriptorProperty, RandomBurstCorruptionDetected)
{
    Rng rng(GetParam() + 3000);
    MigrationDescriptor d;
    d.kind = DescriptorKind::nxpToHostReturn;
    d.retval = rng.next();
    d.seq = 1 + rng.below(1 << 20);
    const auto clean = d.toWire();
    for (int trial = 0; trial < 64; ++trial) {
        auto w = clean;
        unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < flips; ++i) {
            unsigned bit =
                static_cast<unsigned>(rng.below(MigrationDescriptor::wireBytes * 8));
            w[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        if (w == clean)  // flips may cancel out
            continue;
        EXPECT_FALSE(MigrationDescriptor::wireIntact(w))
            << "seed " << GetParam() << ", trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DescriptorProperty,
                         ::testing::Range(1, 33));

TEST(Descriptor, DefaultIsInvalid)
{
    MigrationDescriptor d;
    EXPECT_EQ(d.kind, DescriptorKind::invalid);
    auto w = d.toWire();
    // An all-defaults descriptor serializes as zeroes, which is an
    // intact image of kind invalid (an untouched mailbox slot).
    for (std::uint8_t b : w)
        EXPECT_EQ(b, 0u);
    EXPECT_TRUE(MigrationDescriptor::wireIntact(w));
}

} // namespace
} // namespace flick
