#include "vm/page_table.hh"

#include "sim/logging.hh"

namespace flick
{

std::uint64_t
PageTableManager::readEntry(Addr table, unsigned index) const
{
    return _mem.hostDram().read64(table + 8ull * index);
}

void
PageTableManager::writeEntry(Addr table, unsigned index, std::uint64_t entry)
{
    _mem.hostDram().write64(table + 8ull * index, entry);
}

Addr
PageTableManager::createRoot()
{
    Addr root = _alloc.allocate(4096);
    if (!_mem.platform().inHostDram(root))
        panic("page table frame %#llx outside host DRAM",
              (unsigned long long)root);
    _mem.hostDram().fill(root, 0, 4096);
    ++_tablePages;
    return root;
}

int
PageTableManager::leafLevel(PageSize size)
{
    switch (size) {
      case PageSize::size4K: return 0;
      case PageSize::size2M: return 1;
      case PageSize::size1G: return 2;
    }
    panic("bad PageSize");
}

Addr
PageTableManager::descend(Addr cr3, VAddr va, int target_level, bool create)
{
    Addr table = cr3;
    for (int level = 3; level > target_level; --level) {
        unsigned idx = tableIndex(va, level);
        std::uint64_t entry = readEntry(table, idx);
        if (!(entry & pte::present)) {
            if (!create)
                return 0;
            Addr next = _alloc.allocate(4096);
            _mem.hostDram().fill(next, 0, 4096);
            ++_tablePages;
            // Intermediate entries carry the most permissive flags; leaf
            // entries enforce the real protections, as Linux does.
            entry = pte::makeEntry(next,
                                   pte::present | pte::writable | pte::user);
            writeEntry(table, idx, entry);
        } else if (entry & pte::pageSize) {
            // A huge-page leaf sits above the level we want.
            return 0;
        }
        table = pte::entryAddr(entry);
    }
    return table;
}

void
PageTableManager::map(Addr cr3, VAddr va, Addr pa, std::uint64_t bytes,
                      PageSize size, std::uint64_t flags)
{
    std::uint64_t granule = pageBytes(size);
    if (va % granule || pa % granule || bytes % granule || bytes == 0)
        panic("map: unaligned region va=%#llx pa=%#llx bytes=%#llx "
              "granule=%#llx",
              (unsigned long long)va, (unsigned long long)pa,
              (unsigned long long)bytes, (unsigned long long)granule);
    if (!isCanonical(va) || !isCanonical(va + bytes - 1))
        panic("map: non-canonical VA %#llx", (unsigned long long)va);

    int level = leafLevel(size);
    std::uint64_t leaf_flags = flags | pte::present;
    if (level > 0)
        leaf_flags |= pte::pageSize;

    for (std::uint64_t off = 0; off < bytes; off += granule) {
        Addr table = descend(cr3, va + off, level, true);
        if (table == 0)
            panic("map: huge-page conflict at va=%#llx",
                  (unsigned long long)(va + off));
        unsigned idx = tableIndex(va + off, level);
        std::uint64_t old = readEntry(table, idx);
        if (old & pte::present)
            panic("map: va %#llx already mapped",
                  (unsigned long long)(va + off));
        writeEntry(table, idx, pte::makeEntry(pa + off, leaf_flags));
    }
}

std::optional<PageTableManager::LeafRef>
PageTableManager::findLeaf(Addr cr3, VAddr va) const
{
    Addr table = cr3;
    for (int level = 3; level >= 0; --level) {
        unsigned idx = tableIndex(va, level);
        std::uint64_t entry = readEntry(table, idx);
        if (!(entry & pte::present))
            return std::nullopt;
        bool leaf = (level == 0) || (entry & pte::pageSize);
        if (leaf)
            return LeafRef{table, idx, level, entry};
        table = pte::entryAddr(entry);
    }
    return std::nullopt;
}

void
PageTableManager::protect(Addr cr3, VAddr va, std::uint64_t bytes,
                          std::uint64_t set_flags, std::uint64_t clear_flags)
{
    if (va % 4096 || bytes % 4096 || bytes == 0)
        panic("protect: unaligned range va=%#llx bytes=%#llx",
              (unsigned long long)va, (unsigned long long)bytes);

    VAddr end = va + bytes;
    while (va < end) {
        auto leaf = findLeaf(cr3, va);
        if (!leaf)
            panic("protect: va %#llx not mapped", (unsigned long long)va);
        std::uint64_t granule = 4096ull << (9 * leaf->level);
        VAddr page_base = va & ~(granule - 1);
        if (page_base < va || page_base + granule > end)
            panic("protect: range [%#llx,%#llx) splits a %#llx-byte page",
                  (unsigned long long)va, (unsigned long long)end,
                  (unsigned long long)granule);
        std::uint64_t entry = (leaf->entry | set_flags) & ~clear_flags;
        writeEntry(leaf->table, leaf->index, entry);
        va += granule;
    }
    // Permission flips can change which PA a fetch resolves to (or
    // whether it faults); decoded-instruction caches key on PAs with the
    // old mapping and must drop everything (DESIGN.md §13).
    _mem.notifyMappingChange();
}

void
PageTableManager::unmap(Addr cr3, VAddr va, std::uint64_t bytes)
{
    if (va % 4096 || bytes % 4096 || bytes == 0)
        panic("unmap: unaligned range va=%#llx bytes=%#llx",
              (unsigned long long)va, (unsigned long long)bytes);

    VAddr end = va + bytes;
    while (va < end) {
        auto leaf = findLeaf(cr3, va);
        if (!leaf) {
            va += 4096;
            continue;
        }
        std::uint64_t granule = 4096ull << (9 * leaf->level);
        VAddr page_base = va & ~(granule - 1);
        if (page_base < va || page_base + granule > end)
            panic("unmap: range [%#llx,%#llx) splits a %#llx-byte page",
                  (unsigned long long)va, (unsigned long long)end,
                  (unsigned long long)granule);
        writeEntry(leaf->table, leaf->index, 0);
        va += granule;
    }
    // The physical page may be reallocated and refilled with different
    // text under a new mapping; drop all predecoded entries.
    _mem.notifyMappingChange();
}

std::optional<DebugTranslation>
PageTableManager::translate(Addr cr3, VAddr va) const
{
    if (!isCanonical(va))
        return std::nullopt;
    auto leaf = findLeaf(cr3, va);
    if (!leaf)
        return std::nullopt;
    std::uint64_t granule = 4096ull << (9 * leaf->level);
    PageSize size = leaf->level == 0   ? PageSize::size4K
                    : leaf->level == 1 ? PageSize::size2M
                                       : PageSize::size1G;
    Addr page_pa = pte::entryAddr(leaf->entry) & ~(granule - 1);
    return DebugTranslation{page_pa + (va & (granule - 1)), size,
                            leaf->entry};
}

} // namespace flick
