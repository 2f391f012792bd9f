/**
 * @file
 * Migration descriptors.
 *
 * The unit of Flick's thread migration: a fixed 128-byte record carrying
 * the call target, the thread identity (PID, CR3), the NxP stack pointer
 * and the ABI arguments or return value. Descriptors are written into
 * kernel/device buffers in simulated memory and moved across PCIe by the
 * DMA engine in a single burst (Section IV-B1).
 */

#ifndef FLICK_FLICK_DESCRIPTOR_HH
#define FLICK_FLICK_DESCRIPTOR_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "mem/sparse_memory.hh"
#include "vm/pte.hh"

namespace flick
{

/** Direction/meaning of a descriptor. */
enum class DescriptorKind : std::uint32_t
{
    invalid = 0,
    hostToNxpCall = 1,   //!< Host calls an NxP function.
    nxpToHostCall = 2,   //!< NxP calls a host function.
    hostToNxpReturn = 3, //!< Host function finished; value back to NxP.
    nxpToHostReturn = 4, //!< NxP function finished; value back to host.
};

/** Printable descriptor-kind name, for diagnostics. */
const char *descriptorKindName(DescriptorKind kind);

/**
 * A migration descriptor (128 bytes on the wire).
 *
 * The wire format carries two integrity fields so the fabric does not
 * have to be trusted: a per-link sequence number (offset 96) and a
 * CRC-64 checksum over bytes [0, 120) stored in the final 8 bytes.
 * Receivers verify both before acting on a descriptor and NAK a slot
 * whose checksum fails, triggering a retransmission from the sender's
 * staging copy.
 */
struct MigrationDescriptor
{
    static constexpr std::uint64_t wireBytes = 128;
    static constexpr unsigned maxArgs = 6;
    /** Bytes covered by the trailing checksum (everything before it). */
    static constexpr std::uint64_t checksummedBytes = wireBytes - 8;

    using Wire = std::array<std::uint8_t, wireBytes>;

    DescriptorKind kind = DescriptorKind::invalid;
    std::uint32_t pid = 0;
    VAddr target = 0;       //!< Function to call (call kinds).
    Addr cr3 = 0;           //!< Page table base shared by both cores.
    VAddr nxpSp = 0;        //!< Thread's NxP stack pointer.
    std::uint64_t retval = 0; //!< Return value (return kinds).
    std::uint32_t nargs = 0;
    std::array<std::uint64_t, maxArgs> args{};
    std::uint64_t seq = 0;  //!< Per-link FIFO sequence number.
    /**
     * Generation token of the in-flight call this descriptor belongs
     * to. A call that is cancelled or failed (deadline, dead device)
     * releases its PID immediately; a descriptor from the dead call can
     * still be in flight and must not be delivered to a later call that
     * reuses the PID. Receivers drop descriptors whose callId does not
     * match the PID's current in-flight call.
     */
    std::uint64_t callId = 0;

    /**
     * Serialize to the 128-byte wire format (little endian), computing
     * and embedding the trailing checksum.
     */
    Wire toWire() const;

    /**
     * Deserialize from the wire format. Does not verify integrity;
     * receivers call wireIntact() on the raw bytes first.
     */
    static MigrationDescriptor fromWire(const Wire &wire);

    /** CRC-64 of @p wire's checksummed prefix. */
    static std::uint64_t wireChecksum(const Wire &wire);

    /**
     * May a receiver act on @p wire? True when its embedded checksum
     * matches its contents and its kind and argument count are in range
     * (kind <= nxpToHostReturn, nargs <= maxArgs). The all-zero image
     * passes: it is intact but of kind invalid.
     */
    static bool wireIntact(const Wire &wire);
};

/**
 * The CRC-64/ECMA-182 implementations behind
 * MigrationDescriptor::wireChecksum(), exposed so tests can hold each one
 * to the bitwise reference. wireChecksum() uses pclmulFold() when
 * pclmulAvailable(), else slicingBy8().
 */
namespace descriptor_crc
{

/** Slicing-by-8 over @p len bytes: the path on every other host. */
std::uint64_t slicingBy8(const std::uint8_t *p, std::size_t len);

/** True when this CPU reports PCLMULQDQ (checked once, at start-up). */
bool pclmulAvailable();

/**
 * PCLMULQDQ folding over the MigrationDescriptor::checksummedBytes bytes
 * at @p p. Call only when pclmulAvailable().
 */
std::uint64_t pclmulFold(const std::uint8_t *p);

} // namespace descriptor_crc

} // namespace flick

#endif // FLICK_FLICK_DESCRIPTOR_HH
