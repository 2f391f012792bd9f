#include "vm/phys_allocator.hh"

#include "sim/logging.hh"

namespace flick
{

namespace
{

constexpr std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

} // namespace

PhysAllocator::PhysAllocator(std::string name, Addr base, std::uint64_t size)
    : _name(std::move(name)), _base(base), _size(size)
{
    if (base % 4096 != 0 || size % 4096 != 0)
        panic("PhysAllocator %s: unaligned region %#llx+%#llx",
              _name.c_str(), (unsigned long long)base,
              (unsigned long long)size);
    _free[base] = size;
}

Addr
PhysAllocator::allocate(std::uint64_t bytes, std::uint64_t align)
{
    if (bytes == 0)
        panic("PhysAllocator %s: zero-size allocation", _name.c_str());
    if (align < 4096)
        align = 4096;
    if ((align & (align - 1)) != 0)
        panic("PhysAllocator %s: alignment %#llx not a power of two",
              _name.c_str(), (unsigned long long)align);
    bytes = roundUp(bytes, 4096);

    for (auto it = _free.begin(); it != _free.end(); ++it) {
        Addr start = it->first;
        std::uint64_t len = it->second;
        Addr aligned = roundUp(start, align);
        std::uint64_t skip = aligned - start;
        if (skip >= len || len - skip < bytes)
            continue;

        // Carve [aligned, aligned+bytes) out of [start, start+len).
        _free.erase(it);
        if (skip > 0)
            _free[start] = skip;
        std::uint64_t tail = len - skip - bytes;
        if (tail > 0)
            _free[aligned + bytes] = tail;
        _allocated += bytes;
        return aligned;
    }
    fatal("PhysAllocator %s exhausted: wanted %llu bytes (align %#llx), "
          "%llu of %llu allocated",
          _name.c_str(), (unsigned long long)bytes,
          (unsigned long long)align, (unsigned long long)_allocated,
          (unsigned long long)_size);
}

} // namespace flick
