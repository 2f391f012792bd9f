/**
 * @file
 * A move-only void() callable with fixed inline storage.
 *
 * Every event, DMA completion and engine continuation is a closure, and
 * the engine's closures carry a call's (pid, id) and often a whole
 * MigrationDescriptor. std::function keeps any closure larger than 16
 * bytes on the heap, which would cost a crossing about two dozen
 * allocations. InlineCallback keeps the closure inside the object. There
 * is no heap fallback: a closure that does not fit is a compile error, so
 * a later capture cannot start allocating unnoticed.
 */

#ifndef FLICK_SIM_INLINE_CALLBACK_HH
#define FLICK_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace flick
{

class InlineCallback;

/** A void() callable an InlineCallback can hold: anything but itself. */
template <class F>
concept CallbackClosure =
    !std::is_same_v<std::decay_t<F>, InlineCallback> &&
    std::is_invocable_r_v<void, std::decay_t<F> &>;

/**
 * The one callback type of the event queue, the DMA engine and the
 * migration engine. It holds any void() closure of at most capacity
 * bytes. Moving it moves the closure; a trivially copyable closure (all
 * of the engine's) moves as a plain copy of the storage.
 */
class InlineCallback
{
  public:
    /**
     * Bytes of closure storage. The engine's closures that carry a
     * MigrationDescriptor take 128-144 bytes with GCC 12 on x86-64; all
     * others take at most 64.
     */
    static constexpr std::size_t capacity = 144;

    InlineCallback() noexcept = default;
    InlineCallback(std::nullptr_t) noexcept {}

    template <CallbackClosure F>
    InlineCallback(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    /** Replace the closure, building the new one in place. */
    template <CallbackClosure F>
    InlineCallback &
    operator=(F &&f)
    {
        reset();
        emplace(std::forward<F>(f));
        return *this;
    }

    InlineCallback(InlineCallback &&other) noexcept { take(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    explicit operator bool() const noexcept { return _invoke != nullptr; }

    /** Run the closure; the callback must not be empty. */
    void operator()() { _invoke(_buf); }

  private:
    template <class F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        static_assert(sizeof(D) <= capacity,
                      "closure larger than InlineCallback::capacity (144 "
                      "bytes): capture an id or a pointer, not a large "
                      "object");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "closure over-aligned for InlineCallback");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "InlineCallback moves its closure without throwing");
        ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
        _invoke = [](void *p) { (*static_cast<D *>(p))(); };
        if constexpr (!std::is_trivially_copyable_v<D>)
            _manage = &manage<D>;
    }

    /** Move-construct the closure at @p dst from @p src, or destroy it
     *  at @p src when @p dst is null. */
    template <class D>
    static void
    manage(void *dst, void *src) noexcept
    {
        D *from = static_cast<D *>(src);
        if (dst)
            ::new (dst) D(std::move(*from));
        from->~D();
    }

    void
    take(InlineCallback &other) noexcept
    {
        if (!other._invoke)
            return;
        if (other._manage)
            other._manage(_buf, other._buf);
        else
            std::memcpy(_buf, other._buf, capacity);
        _invoke = other._invoke;
        _manage = other._manage;
        other._invoke = nullptr;
        other._manage = nullptr;
    }

    void
    reset() noexcept
    {
        if (_manage)
            _manage(nullptr, _buf);
        _invoke = nullptr;
        _manage = nullptr;
    }

    alignas(std::max_align_t) unsigned char _buf[capacity];
    void (*_invoke)(void *) = nullptr;
    //! Null for a trivially copyable closure: moves copy _buf and
    //! nothing needs destroying.
    void (*_manage)(void *, void *) noexcept = nullptr;
};

} // namespace flick

#endif // FLICK_SIM_INLINE_CALLBACK_HH
