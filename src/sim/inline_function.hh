/**
 * @file
 * Fixed-capacity move-only callable wrapper for hot paths.
 *
 * The simulator schedules millions of events and memory-completion
 * callbacks per run; wrapping each in a std::function costs a heap
 * allocation whenever the capture exceeds the library's tiny SSO buffer.
 * InlineFunction stores the callable inline in a caller-chosen buffer and
 * never allocates: a callable that is too large or over-aligned for the
 * buffer is refused at compile time (the constructor and emplace() are
 * constrained on fitsInline()), so each alias's capacity is checked
 * against every closure the build gives it.
 *
 * Differences from std::function, all deliberate:
 *  - move-only (so it can carry move-only captures, which the event and
 *    completion paths use to hand callbacks through without copies);
 *  - fixed capacity, no allocation;
 *  - no target()/target_type() RTTI;
 *  - calling an empty InlineFunction is undefined (callers check bool()).
 */

#ifndef MONDRIAN_SIM_INLINE_FUNCTION_HH
#define MONDRIAN_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mondrian {

template <typename Signature, std::size_t InlineBytes>
class InlineFunction; // primary template; only the partial spec exists

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes>
{
  public:
    static constexpr std::size_t kInlineBytes = InlineBytes;

    /** Whether a callable of type @p Fn fits the inline buffer. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= InlineBytes && alignof(Fn) <= alignof(void *);
    }

    /**
     * Whether @p F is a callable with this signature (and not an
     * InlineFunction or nullptr). The constructor and emplace() take it
     * when it also fits inline.
     */
    template <typename F>
    static constexpr bool
    callable()
    {
        using Fn = std::decay_t<F>;
        return !std::is_same_v<Fn, InlineFunction> &&
               !std::is_same_v<Fn, std::nullptr_t> &&
               std::is_invocable_r_v<R, Fn &, Args...>;
    }

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F>
        requires(callable<F>() && fitsInline<std::decay_t<F>>())
    InlineFunction(F &&f) // NOLINT: implicit, like std::function
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    /**
     * Destroy the current target (if any) and construct a new one in
     * place — the storage-reuse path: event-queue slots recycle their
     * InlineFunction without routing the new callable through a
     * temporary object and a relocate call.
     */
    template <typename F>
        requires(callable<F>() && fitsInline<std::decay_t<F>>())
    void
    emplace(F &&f)
    {
        destroy();
        construct(std::forward<F>(f));
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

  private:
    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &inlineOps<Fn>;
    }

    /**
     * Per-callable-type vtable (invoke / relocate / destroy). The destroy
     * slot is null when the stored callable is trivially destructible:
     * the common simulator capture (a couple of pointers and PODs) then
     * destructs for free, with no indirect call.
     */
    struct Ops
    {
        R (*invoke)(unsigned char *, Args &&...);
        /** Move-construct into @p dst from @p src, destroying @p src. */
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
    static constexpr Ops inlineOps{
        &invokeInline<Fn>,
        &relocateInline<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr
                                             : &destroyInline<Fn>};

    void
    moveFrom(InlineFunction &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    destroy()
    {
        if (ops_ && ops_->destroy)
            ops_->destroy(buf_);
    }

    // Pointer-aligned, so no padding can precede the buffer and sizeof
    // is the capacity plus the ops pointer.
    alignas(void *) mutable unsigned char buf_[InlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace mondrian

#endif // MONDRIAN_SIM_INLINE_FUNCTION_HH
