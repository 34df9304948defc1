/**
 * @file
 * Small-buffer-optimized move-only callable wrapper for hot paths.
 *
 * The simulator schedules millions of events and memory-completion
 * callbacks per run; wrapping each in a std::function costs a heap
 * allocation whenever the capture exceeds the library's tiny SSO buffer.
 * InlineFunction stores the callable inline in a caller-chosen buffer, so
 * the common capture sizes (a `this` pointer, a few PODs, a nested
 * completion callback) never touch the allocator. Oversized or
 * over-aligned callables fall back to the heap transparently, so the type
 * is always correct and only ever *faster* than std::function.
 *
 * Differences from std::function, all deliberate:
 *  - move-only (so it can carry move-only captures, which the event and
 *    completion paths use to hand callbacks through without copies);
 *  - no target()/target_type() RTTI;
 *  - calling an empty InlineFunction is undefined (callers check bool()).
 */

#ifndef MONDRIAN_SIM_INLINE_FUNCTION_HH
#define MONDRIAN_SIM_INLINE_FUNCTION_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace mondrian {

namespace detail {
// Relaxed is enough: the tally is a diagnostic, never a synchronization
// edge. Hot paths never touch it — only the (supposedly cold) fallback
// branches below increment it.
inline std::atomic<std::uint64_t> inline_function_heap_fallbacks{0};
} // namespace detail

/**
 * Process-wide count of InlineFunction constructions that spilled to the
 * heap because the callable exceeded its inline buffer. The simulator's
 * hot paths are contractually allocation-free, so for any smoke run this
 * must stay zero; tests assert the delta across a run
 * (scripts/check_invariants.sh backs the same rule at compile time).
 */
inline std::uint64_t
inlineFunctionHeapFallbacks()
{
    return detail::inline_function_heap_fallbacks.load(
        std::memory_order_relaxed);
}

template <typename Signature, std::size_t InlineBytes>
class InlineFunction; // primary template; only the partial spec exists

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes>
{
  public:
    static constexpr std::size_t kInlineBytes = InlineBytes;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f) // NOLINT: implicit, like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            detail::inline_function_heap_fallbacks.fetch_add(
                1, std::memory_order_relaxed);
            ::new (static_cast<void *>(buf_))
                (Fn *)(new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    /**
     * Destroy the current target (if any) and construct a new one in
     * place — the storage-reuse path: event-queue slots recycle their
     * InlineFunction without routing the new callable through a
     * temporary object and a relocate call.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    void
    emplace(F &&f)
    {
        destroy();
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            detail::inline_function_heap_fallbacks.fetch_add(
                1, std::memory_order_relaxed);
            ::new (static_cast<void *>(buf_))
                (Fn *)(new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>;
        }
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t)
    {
        destroy();
        ops_ = nullptr;
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke. Undefined when empty (callers test operator bool first). */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /** Whether a callable of type @p Fn is stored without allocating. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= InlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t);
    }

  private:
    /**
     * Per-callable-type vtable (invoke / relocate / destroy). The
     * relocate and destroy slots are null when the stored callable is
     * trivially copyable / trivially destructible: the common simulator
     * capture (a couple of pointers and PODs) then moves with one
     * inline memcpy and destructs for free, with no indirect call on
     * either path.
     */
    struct Ops
    {
        R (*invoke)(unsigned char *, Args &&...);
        /** Move-construct into @p dst from @p src, destroying @p src.
         *  Null means "memcpy the whole inline buffer". */
        void (*relocate)(unsigned char *dst, unsigned char *src);
        /** Null means trivially destructible: nothing to run. */
        void (*destroy)(unsigned char *);
    };

    template <typename Fn>
    static Fn *
    inlinePtr(unsigned char *buf)
    {
        return std::launder(reinterpret_cast<Fn *>(buf));
    }

    template <typename Fn>
    static Fn *&
    heapPtr(unsigned char *buf)
    {
        return *std::launder(reinterpret_cast<Fn **>(buf));
    }

    template <typename Fn>
    static R
    invokeInline(unsigned char *buf, Args &&...args)
    {
        return (*inlinePtr<Fn>(buf))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    relocateInline(unsigned char *dst, unsigned char *src)
    {
        Fn *from = inlinePtr<Fn>(src);
        ::new (static_cast<void *>(dst)) Fn(std::move(*from));
        from->~Fn();
    }

    template <typename Fn>
    static void
    destroyInline(unsigned char *buf)
    {
        inlinePtr<Fn>(buf)->~Fn();
    }

    template <typename Fn>
    static R
    invokeHeap(unsigned char *buf, Args &&...args)
    {
        return (*heapPtr<Fn>(buf))(std::forward<Args>(args)...);
    }

    template <typename Fn>
    static void
    destroyHeap(unsigned char *buf)
    {
        delete heapPtr<Fn>(buf);
    }

    template <typename Fn>
    static constexpr Ops inlineOps{
        &invokeInline<Fn>,
        &relocateInline<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr
                                             : &destroyInline<Fn>};

    // Heap targets relocate by moving the owning pointer, which the
    // buffer memcpy fallback already does — relocate stays null.
    template <typename Fn>
    static constexpr Ops heapOps{&invokeHeap<Fn>, nullptr,
                                 &destroyHeap<Fn>};

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            if (ops_->relocate)
                ops_->relocate(buf_, other.buf_);
            else
                __builtin_memcpy(buf_, other.buf_, InlineBytes);
            other.ops_ = nullptr;
        }
    }

    void
    destroy()
    {
        if (ops_ && ops_->destroy)
            ops_->destroy(buf_);
    }

    // The buffer leads so no padding precedes it: with a 16-byte-aligned
    // buffer, an ops_-first layout would insert 8 dead bytes and round
    // sizeof up a whole alignment quantum — enough to push a nested
    // callback capture past its outer buffer and onto the heap.
    alignas(std::max_align_t) mutable unsigned char buf_[InlineBytes];
    const Ops *ops_ = nullptr;
};

/**
 * Compile-time layout pin: true iff InlineFunction type @p IF has its
 * minimal packed size — the inline buffer immediately followed by the ops
 * pointer, rounded up to the buffer alignment. Any padding inserted ahead
 * of the buffer (the PR 8 regression: 8 dead bytes that pushed nested
 * captures to the heap) grows sizeof past this bound. static_assert it
 * next to every hot-path Callback alias.
 */
template <typename IF>
inline constexpr bool kInlineFunctionPacked =
    sizeof(IF) ==
    (IF::kInlineBytes + sizeof(void *) + alignof(std::max_align_t) - 1) /
        alignof(std::max_align_t) * alignof(std::max_align_t);

} // namespace mondrian

#endif // MONDRIAN_SIM_INLINE_FUNCTION_HH
