/**
 * @file
 * Timing wrappers the traced run inserts at the simulator's public
 * seams: a trace source, a memory level and a protection scheme.  Each
 * forwards every call unchanged and brackets it in a Span, so a traced
 * run executes the same simulation as an untraced one.
 */

#ifndef PERFBENCH_SEAMS_HH
#define PERFBENCH_SEAMS_HH

#include <array>
#include <memory>
#include <type_traits>
#include <utility>

#include "cache/memory_level.hh"
#include "cache/protection_scheme.hh"
#include "sim/paper_config.hh"
#include "trace/trace_io.hh"

#include "spans.hh"

namespace perfbench {

/** Which span each group of scheme callbacks is recorded under. */
struct SchemeSpans
{
    Layer encode = kNoSpan; ///< onFill / onEvict / onStore / onClean
    Layer check = kNoSpan;  ///< check / recover
    Layer resync = kNoSpan; ///< resyncRow
};

/** Re-target a timed scheme's spans after construction. */
class SpanSwitch
{
  public:
    virtual ~SpanSwitch() = default;
    virtual void setSpans(SchemeSpans spans) = 0;
};

/**
 * A scheme of concrete type @p T with timed callbacks.  It derives from
 * @p T rather than wrapping a ProtectionScheme pointer: stats(),
 * saveState() and attachObserver() are non-virtual, and the fuzzer and
 * invariant probe dynamic_cast to CppcScheme, so only a subclass keeps
 * every observable behaviour of the scheme identical.
 */
template <class T>
class TimedScheme final : public T, public SpanSwitch
{
  public:
    template <class... Args>
    explicit TimedScheme(SchemeSpans spans, Args &&...args)
        : T(std::forward<Args>(args)...), spans_(spans)
    {
    }

    void setSpans(SchemeSpans spans) override { spans_ = spans; }

    cppc::FillEffect
    onFill(cppc::Row row0, unsigned n_units, const uint8_t *data,
           bool victim_was_dirty) override
    {
        Span s(spans_.encode);
        return T::onFill(row0, n_units, data, victim_was_dirty);
    }

    void
    onEvict(cppc::Row row0, unsigned n_units, const uint8_t *data,
            const uint8_t *dirty) override
    {
        Span s(spans_.encode);
        T::onEvict(row0, n_units, data, dirty);
    }

    cppc::StoreEffect
    onStore(cppc::Row row, const cppc::WideWord &old_data,
            const cppc::WideWord &new_data, bool was_dirty,
            bool partial) override
    {
        Span s(spans_.encode);
        return T::onStore(row, old_data, new_data, was_dirty, partial);
    }

    void
    onClean(cppc::Row row, const cppc::WideWord &data) override
    {
        Span s(kOwnOnClean ? spans_.encode : kNoSpan);
        T::onClean(row, data);
    }

    bool
    check(cppc::Row row) const override
    {
        Span s(spans_.check);
        return T::check(row);
    }

    cppc::VerifyOutcome
    recover(cppc::Row row) override
    {
        Span s(spans_.check);
        return T::recover(row);
    }

    void
    resyncRow(cppc::Row row) override
    {
        Span s(kOwnResync ? spans_.resync : kNoSpan);
        T::resyncRow(row);
    }

  private:
    // The base class's onClean/resyncRow are empty; timing a scheme
    // that keeps them would only add timer cost (a campaign resyncs
    // every row after every strike).
    static constexpr bool kOwnOnClean = !std::is_same_v<
        decltype(&T::onClean),
        void (cppc::ProtectionScheme::*)(cppc::Row, const cppc::WideWord &)>;
    static constexpr bool kOwnResync = !std::is_same_v<
        decltype(&T::resyncRow), void (cppc::ProtectionScheme::*)(cppc::Row)>;

    SchemeSpans spans_;
};

/**
 * The scheme cppc::makeScheme() builds for @p kind, as a TimedScheme.
 * Covers the tracked schemes; other kinds are returned untimed.
 */
std::unique_ptr<cppc::ProtectionScheme>
makeTimedScheme(cppc::SchemeKind kind, const cppc::CppcConfig &cfg,
                SchemeSpans spans);

/** Tracked-scheme index of @p kind (0..4), or -1. */
int trackedIndex(cppc::SchemeKind kind);

/** A MemoryLevel that times every line transfer into @p inner. */
class TimedLevel : public cppc::MemoryLevel
{
  public:
    TimedLevel(cppc::MemoryLevel &inner, Layer layer)
        : inner_(&inner), layer_(layer)
    {
    }

    void
    readLine(cppc::Addr addr, uint8_t *out, unsigned len) override
    {
        Span s(layer_);
        inner_->readLine(addr, out, len);
    }

    void
    writeLine(cppc::Addr addr, const uint8_t *data, unsigned len) override
    {
        Span s(layer_);
        inner_->writeLine(addr, data, len);
    }

    std::string name() const override { return inner_->name(); }

  private:
    cppc::MemoryLevel *inner_;
    Layer layer_;
};

/**
 * A TraceSource that draws records from a TraceGenerator in timed
 * batches.  The generator's stream depends only on its own state, so
 * reading ahead yields exactly the records an unbuffered source would,
 * while one span per batch keeps the timer cost off the per-record
 * path.  A run may generate up to one batch more than it consumes.
 */
class TimedSource : public cppc::TraceSource
{
  public:
    explicit TimedSource(cppc::TraceGenerator &gen) : gen_(&gen) {}

    cppc::TraceRecord
    next() override
    {
        if (pos_ == buf_.size())
            refill();
        return buf_[pos_++];
    }

  private:
    void
    refill()
    {
        Span s(kTraceGen);
        for (cppc::TraceRecord &r : buf_)
            r = gen_->next();
        pos_ = 0;
    }

    cppc::TraceGenerator *gen_;
    std::array<cppc::TraceRecord, 256> buf_{};
    size_t pos_ = 256;
};

} // namespace perfbench

#endif // PERFBENCH_SEAMS_HH
