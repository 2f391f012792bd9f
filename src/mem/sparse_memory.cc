#include "mem/sparse_memory.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace flick
{

SparseMemory::SparseMemory(std::uint64_t size)
    : _size(size), _leaves((size + leafBytes - 1) / leafBytes)
{
}

void
SparseMemory::boundsCheck(Addr offset, std::uint64_t len) const
{
    if (offset > _size || len > _size - offset) {
        panic("SparseMemory access out of range: offset=%#llx len=%llu "
              "size=%#llx",
              (unsigned long long)offset, (unsigned long long)len,
              (unsigned long long)_size);
    }
}

bool
SparseMemory::watchedIn(Addr offset, std::uint64_t len) const
{
    const std::uint64_t last = (offset + len - 1) / chunkBytes;
    for (std::uint64_t index = offset / chunkBytes; index <= last; ++index) {
        const Leaf *leaf = _leaves[index / leafChunks].get();
        if (leaf && leaf->watched[index % leafChunks])
            return true;
    }
    return false;
}

SparseMemory::Chunk *
SparseMemory::allocateChunk(Leaf &leaf, std::uint64_t slot)
{
    leaf.chunks[slot] = std::make_unique<Chunk>();
    ++_allocatedChunks;
    return leaf.chunks[slot].get();
}

SparseMemory::Chunk &
SparseMemory::chunkForWrite(Addr offset)
{
    Leaf &leaf = leafForWrite(offset);
    const std::uint64_t slot = chunkSlot(offset);
    Chunk *c = leaf.chunks[slot].get();
    return c ? *c : *allocateChunk(leaf, slot);
}

void
SparseMemory::watch(Addr offset)
{
    boundsCheck(offset, 1);
    leafForWrite(offset).watched[chunkSlot(offset)] = true;
}

void
SparseMemory::read(Addr offset, void *buf, std::uint64_t len) const
{
    boundsCheck(offset, len);
    auto *dst = static_cast<std::uint8_t *>(buf);
    while (len > 0) {
        Addr in_chunk = offset % chunkBytes;
        std::uint64_t take = std::min<std::uint64_t>(len,
                                                     chunkBytes - in_chunk);
        if (const Chunk *c = chunkFor(offset))
            std::memcpy(dst, c->data() + in_chunk, take);
        else
            std::memset(dst, 0, take);
        offset += take;
        dst += take;
        len -= take;
    }
}

void
SparseMemory::write(Addr offset, const void *buf, std::uint64_t len)
{
    boundsCheck(offset, len);
    if (_listener && len > 0 && watchedIn(offset, len))
        _listener(offset, len);
    const auto *src = static_cast<const std::uint8_t *>(buf);
    while (len > 0) {
        Addr in_chunk = offset % chunkBytes;
        std::uint64_t take = std::min<std::uint64_t>(len,
                                                     chunkBytes - in_chunk);
        Chunk &c = chunkForWrite(offset);
        std::memcpy(c.data() + in_chunk, src, take);
        offset += take;
        src += take;
        len -= take;
    }
}

void
SparseMemory::fill(Addr offset, std::uint8_t value, std::uint64_t len)
{
    boundsCheck(offset, len);
    // The zero-fill fast path below may touch no chunk at all, but the
    // range is still logically overwritten — listeners must see it.
    if (_listener && len > 0 && watchedIn(offset, len))
        _listener(offset, len);
    while (len > 0) {
        Addr in_chunk = offset % chunkBytes;
        std::uint64_t take = std::min<std::uint64_t>(len,
                                                     chunkBytes - in_chunk);
        // Zero-fill of untouched chunks is already implicit.
        if (value != 0 || chunkFor(offset) != nullptr) {
            Chunk &c = chunkForWrite(offset);
            std::memset(c.data() + in_chunk, value, take);
        }
        offset += take;
        len -= take;
    }
}

std::uint64_t
SparseMemory::readIntSlow(Addr offset, unsigned len) const
{
    std::uint8_t buf[8] = {};
    if (len > 8)
        panic("readInt of %u bytes", len);
    read(offset, buf, len);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < len; ++i)
        v |= std::uint64_t(buf[i]) << (8 * i);
    return v;
}

void
SparseMemory::writeIntSlow(Addr offset, std::uint64_t value, unsigned len)
{
    if (len > 8)
        panic("writeInt of %u bytes", len);
    std::uint8_t buf[8];
    for (unsigned i = 0; i < len; ++i)
        buf[i] = static_cast<std::uint8_t>(value >> (8 * i));
    write(offset, buf, len);
}

} // namespace flick
