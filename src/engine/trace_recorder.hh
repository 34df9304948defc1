/**
 * @file
 * Trace recorder: the functional layer's pen for writing kernel traces.
 *
 * A TraceRecorder wraps one compute unit's KernelTrace with fractional
 * cycle accounting (cost tables are doubles; the recorder accumulates the
 * remainder so long loops charge the exact average) and with helpers that
 * express common access idioms (line-granular sequential reads, tuple
 * stores, stream pops).
 *
 * Sequential idioms emit run-length-encoded ops (see trace.hh): readRange,
 * writeRange and scanFixed record one run op per maximal uniform stretch
 * instead of one op per chunk. The encoded trace expands to exactly the op
 * sequence the per-chunk emission used to produce, so timing results are
 * unchanged — traces are just far smaller and faster to replay.
 */

#ifndef MONDRIAN_ENGINE_TRACE_RECORDER_HH
#define MONDRIAN_ENGINE_TRACE_RECORDER_HH

#include <bit>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "core/trace.hh"

namespace mondrian {

/** Records one compute unit's kernel trace. */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /** Charge @p cycles (fractional) of computation. */
    void
    compute(double cycles)
    {
        carry_ += cycles;
        auto whole = static_cast<std::uint64_t>(carry_);
        if (whole > 0) {
            trace_.addCompute(whole);
            carry_ -= static_cast<double>(whole);
        }
    }

    void load(Addr a, std::uint32_t size) { trace_.add(TraceOp::load(a, size)); }
    void
    loadBlocking(Addr a, std::uint32_t size)
    {
        trace_.add(TraceOp::loadBlocking(a, size));
    }
    void store(Addr a, std::uint32_t size) { trace_.add(TraceOp::store(a, size)); }
    void
    permutableStore(Addr a, std::uint32_t size)
    {
        trace_.add(TraceOp::permutableStore(a, size));
    }
    void
    streamRead(Addr a, std::uint32_t size)
    {
        trace_.add(TraceOp::streamRead(a, size));
    }
    void fence() { trace_.add(TraceOp::fence()); }

    /** Grow the trace's reservation by @p more ops (cardinality hint). */
    void
    reserveMore(std::size_t more)
    {
        trace_.reserve(trace_.size() + more);
    }

    /**
     * Sequential read of [base, base+bytes) in @p chunk-sized pieces.
     * Whole chunks are recorded as one run op; a trailing partial chunk
     * is recorded individually.
     * @param stream use stream-buffer reads instead of demand loads.
     */
    void
    readRange(Addr base, std::uint64_t bytes, std::uint32_t chunk,
              bool stream)
    {
        const std::uint64_t full = bytes / chunk;
        const auto tail = static_cast<std::uint32_t>(bytes % chunk);
        Addr at = base;
        for (std::uint64_t left = full; left > 0;) {
            auto n = static_cast<std::uint32_t>(
                left > 0xffffffffull ? 0xffffffffull : left);
            if (n == 1) {
                if (stream)
                    streamRead(at, chunk);
                else
                    load(at, chunk);
            } else {
                trace_.add(stream ? TraceOp::streamRun(at, chunk, n)
                                  : TraceOp::loadRun(at, chunk, n));
            }
            at += Addr{n} * chunk;
            left -= n;
        }
        if (tail > 0) {
            if (stream)
                streamRead(at, tail);
            else
                load(at, tail);
        }
    }

    /** Sequential write of [base, base+bytes) in @p chunk-sized pieces. */
    void
    writeRange(Addr base, std::uint64_t bytes, std::uint32_t chunk)
    {
        const std::uint64_t full = bytes / chunk;
        const auto tail = static_cast<std::uint32_t>(bytes % chunk);
        Addr at = base;
        for (std::uint64_t left = full; left > 0;) {
            auto n = static_cast<std::uint32_t>(
                left > 0xffffffffull ? 0xffffffffull : left);
            if (n == 1)
                store(at, chunk);
            else
                trace_.add(TraceOp::storeRun(at, chunk, n));
            at += Addr{n} * chunk;
            left -= n;
        }
        if (tail > 0)
            store(at, tail);
    }

    /**
     * The scan idiom for a *uniform* per-tuple compute cost, run-length
     * encoded: `count` tuples are read from @p base in @p chunk_bytes
     * pieces, and every tuple costs @p cycles_per_tuple cycles.
     *
     * Emits exactly the ops that
     *   scanEmit(rec, base, count, tb, cb, stream,
     *            [&](std::uint64_t) { rec.compute(cycles_per_tuple); });
     * would (same fractional-cycle carry behavior, chunk by chunk), but
     * collapses maximal stretches of identical (chunk bytes, chunk
     * compute) into single run ops. Note a compute() call immediately
     * after this will not coalesce with the final chunk's compute burst
     * when that burst ended inside a run op; callers that need byte-exact
     * continuation emit a memory op or fence next (all current ones do).
     */
    void
    scanFixed(Addr base, std::uint64_t count, std::uint32_t tuple_bytes,
              std::uint32_t chunk_bytes, bool stream,
              double cycles_per_tuple)
    {
        const std::uint64_t per_chunk = chunk_bytes / tuple_bytes;
        sim_assert(per_chunk > 0); // chunk must hold >= 1 tuple
        Addr run_base = 0;
        std::uint32_t run_bytes = 0;
        std::uint64_t run_cycles = 0;
        std::uint32_t run_len = 0;

        auto flush = [&]() {
            if (run_len == 0)
                return;
            if (run_len == 1) {
                if (stream)
                    streamRead(run_base, run_bytes);
                else
                    load(run_base, run_bytes);
                if (run_cycles > 0)
                    trace_.addCompute(run_cycles);
            } else {
                auto aux = static_cast<std::uint32_t>(run_cycles);
                trace_.add(stream ? TraceOp::streamRun(run_base, run_bytes,
                                                       run_len, aux)
                                  : TraceOp::loadRun(run_base, run_bytes,
                                                     run_len, aux));
            }
            run_len = 0;
        };

        // The last full chunk stepped: its carry in, whole cycles and
        // carry out. A full chunk that starts from a bit-equal carry
        // steps through the identical doubles, so it reuses them.
        bool memo = false;
        std::uint64_t memo_in = 0;
        std::uint64_t memo_cycles = 0;
        double memo_out = 0.0;

        for (std::uint64_t start = 0; start < count; start += per_chunk) {
            const std::uint64_t n =
                (count - start) < per_chunk ? (count - start) : per_chunk;
            const auto bytes = static_cast<std::uint32_t>(n * tuple_bytes);
            // Whole cycles this chunk emits, with the identical carry
            // stepping compute() would perform per tuple.
            std::uint64_t chunk_cycles = 0;
            const auto carry_in = std::bit_cast<std::uint64_t>(carry_);
            if (n == per_chunk && memo && carry_in == memo_in) {
                chunk_cycles = memo_cycles;
                carry_ = memo_out;
            } else {
                for (std::uint64_t j = 0; j < n; ++j) {
                    carry_ += cycles_per_tuple;
                    auto whole = static_cast<std::uint64_t>(carry_);
                    if (whole > 0) {
                        chunk_cycles += whole;
                        carry_ -= static_cast<double>(whole);
                    }
                }
                if (n == per_chunk) {
                    memo = true;
                    memo_in = carry_in;
                    memo_cycles = chunk_cycles;
                    memo_out = carry_;
                }
            }
            if (run_len > 0 && bytes == run_bytes &&
                chunk_cycles == run_cycles && run_len < 0xffffffffu &&
                chunk_cycles <= 0xffffffffull) {
                ++run_len;
            } else {
                flush();
                run_base = base + start * tuple_bytes;
                run_bytes = bytes;
                run_cycles = chunk_cycles;
                run_len = chunk_cycles <= 0xffffffffull ? 1 : 0;
                if (run_len == 0) {
                    // Absurdly large per-chunk burst: emit unencoded.
                    if (stream)
                        streamRead(base + start * tuple_bytes, bytes);
                    else
                        load(base + start * tuple_bytes, bytes);
                    trace_.addCompute(chunk_cycles);
                }
            }
        }
        flush();
    }

    KernelTrace &trace() { return trace_; }
    const KernelTrace &trace() const { return trace_; }

    /** Move the finished trace out. */
    KernelTrace take() { return std::move(trace_); }

  private:
    KernelTrace trace_;
    double carry_ = 0.0;
};

/**
 * Emit the canonical scan idiom: a chunked sequential read of @p count
 * tuples from @p base, interleaved with per-tuple work so the timing model
 * sees compute and memory overlap the way the real loop would.
 *
 * Use TraceRecorder::scanFixed instead when the per-tuple work is a fixed
 * compute cost — it records the same stream run-length encoded.
 *
 * @param f callback invoked once per tuple index with (tuple_index).
 */
template <typename PerTuple>
void
scanEmit(TraceRecorder &rec, Addr base, std::uint64_t count,
         std::uint32_t tuple_bytes, std::uint32_t chunk_bytes, bool stream,
         PerTuple f)
{
    const std::uint64_t per_chunk = chunk_bytes / tuple_bytes;
    sim_assert(per_chunk > 0); // chunk must hold >= 1 tuple
    for (std::uint64_t start = 0; start < count; start += per_chunk) {
        const std::uint64_t n =
            (count - start) < per_chunk ? (count - start) : per_chunk;
        const auto bytes = static_cast<std::uint32_t>(n * tuple_bytes);
        if (stream)
            rec.streamRead(base + start * tuple_bytes, bytes);
        else
            rec.load(base + start * tuple_bytes, bytes);
        for (std::uint64_t j = 0; j < n; ++j)
            f(start + j);
    }
}

} // namespace mondrian

#endif // MONDRIAN_ENGINE_TRACE_RECORDER_HH
