/**
 * @file
 * Fleet health plane: streaming rollups + declarative alerting over the
 * deterministic telemetry streams.
 *
 * PRs 2-4 record everything (metrics, journal, TimeSeries) but
 * interpret nothing while the mission runs; a constellation can spend a
 * simulated year degraded and nobody notices until a post-hoc
 * kodan-report diff. The health plane is the online interpreter:
 *
 *  - **Observations, not wall clock.** Engines feed per-(entity,
 *    signal) observations keyed by sim-time bin — the same
 *    already-deterministic per-bin aggregates that back the TimeSeries
 *    — from their *serial* index-order folds. ConstellationEngine
 *    feeds per-satellite and per-station bins. Nothing here reads a
 *    clock, so verdicts are pure functions of the observation
 *    sequence and inherit the engines' bit-identity across
 *    KODAN_THREADS and shard sizes.
 *  - **Online detectors** (detector.hpp): EWMA level-shift, MAD robust
 *    z-score, fixed-point flatline — instantiated per (rule, entity)
 *    stream by the rules engine.
 *  - **Declarative alert rules**: threshold / rate / absence / anomaly
 *    conditions over signal selectors, a firing→resolved state machine
 *    with consecutive-observation hysteresis, and per-alert evidence:
 *    the breaching observations plus the entity's journal lane window
 *    (region, slot, ord range) so tools can slice the flight recorder
 *    to the exact events behind an alert.
 *  - **Cardinality-controlled rollups**: per-entity counters fold into
 *    a top-K offender table plus a single "other" bucket (K
 *    configurable), so a 10k-satellite fleet summarizes in O(K) no
 *    matter how many entities report.
 *  - **Export**: `--alerts-out PATH` / `KODAN_ALERTS` (wired through
 *    telemetry::configureFromArgs) writes the alert JSONL at exit;
 *    alert bytes are part of the determinism contract (see
 *    `ctest -L health`). Alert transitions also emit
 *    `health.alert.fire` / `health.alert.resolve` journal events for
 *    the kodan-top live alerts pane.
 *
 * Threading: observe()/advance()/finish() mutate under one mutex, but
 * the determinism contract additionally requires callers to feed each
 * stream in a deterministic serial order (the engines' index-order
 * folds do). snapshot() is safe at quiescence.
 *
 * Cost: the engines' serial folds feed the plane on the mission's
 * critical path, so an observation does no searching. Signal names are
 * interned once (signal()), each signal lists the rules that watch it,
 * an entity's per-rule state is a vector indexed by rule holding only
 * the detector its rule runs, and a Feed takes the lock once for a
 * whole chunk.
 */

#ifndef KODAN_TELEMETRY_HEALTH_HPP
#define KODAN_TELEMETRY_HEALTH_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/detector.hpp"

namespace kodan::telemetry::health {

/** What kind of fleet asset an observation stream belongs to. */
enum class EntityKind
{
    Satellite,
    Station,
};

/** Stable lowercase name ("satellite", "station"). */
const char *entityKindName(EntityKind kind);

/** An interned signal name (HealthPlane::signal). */
using SignalId = std::uint32_t;

/** One declarative alert rule over a signal selector. */
struct AlertRule
{
    enum class Kind
    {
        /** Breach when value `op` threshold. */
        Threshold,
        /** Breach when |Δvalue| / Δbin > threshold. */
        Rate,
        /** Breach when a previously seen stream goes silent for more
         *  than `gap_bins` bins (evaluated at advance()/finish()). */
        Absence,
        /** Breach when the selected detector flags the observation. */
        Anomaly,
    };

    enum class Op
    {
        Gt,
        Lt,
    };

    enum class Detector
    {
        Ewma,
        Robust,
        Flatline,
    };

    /** Alert name, e.g. "storage.drop". */
    std::string name;
    /** Exact signal selector, e.g. "storage.dropped_bits". */
    std::string signal;
    Kind kind = Kind::Threshold;
    Op op = Op::Gt;
    /** Threshold / rate limit (unused for Absence/Anomaly). */
    double threshold = 0.0;
    /** Absence only: silent bins tolerated before breaching. */
    std::int64_t gap_bins = 48;
    /** Anomaly only: which detector instance the rule runs. */
    Detector detector = Detector::Ewma;
    /** Consecutive breaching observations before the alert fires. */
    std::int64_t fire_after = 1;
    /** Consecutive clear observations before a firing alert resolves. */
    std::int64_t clear_after = 2;
};

/** One breaching observation kept as alert evidence. */
struct AlertEvidence
{
    std::int64_t bin = 0;
    double t_s = 0.0;
    double value = 0.0;
};

/** Journal lane window tying an alert to flight-recorder events. */
struct JournalWindow
{
    std::uint64_t region = 0;
    std::uint64_t slot = 0;
    std::uint32_t ord_lo = 0;
    std::uint32_t ord_hi = 0;
    bool valid = false;
};

/** One alert instance (firing or resolved). */
struct Alert
{
    std::uint64_t id = 0;
    std::string rule;
    std::string signal;
    EntityKind entity_kind = EntityKind::Satellite;
    std::int64_t entity = 0;
    bool firing = true;
    std::int64_t first_bin = 0;
    std::int64_t last_bin = 0;
    double first_t_s = 0.0;
    double last_t_s = 0.0;
    /** Largest breaching magnitude observed while firing. */
    double peak_value = 0.0;
    /** Most recent breaching value. */
    double last_value = 0.0;
    JournalWindow journal;
    /** Up to HealthConfig::max_evidence breaching observations. */
    std::vector<AlertEvidence> evidence;
};

/** Per-entity rollup counters. */
struct RollupEntry
{
    EntityKind kind = EntityKind::Satellite;
    std::int64_t entity = 0;
    /** Number of entities folded in (1 for a named entry, >= 0 for the
     *  "other" bucket). */
    std::int64_t members = 0;
    std::int64_t observations = 0;
    /** Observations on which at least one rule breached. */
    std::int64_t anomalous = 0;
    std::int64_t alerts_fired = 0;
    /** Exact (fixed-point accumulated) sum of breach scores. */
    double score_sum = 0.0;
    std::int64_t last_bin = 0;
};

/** Point-in-time view of the plane. */
struct HealthSnapshot
{
    /** Top-K offenders, worst first (alerts, then anomalous count,
     *  then score). */
    std::vector<RollupEntry> top;
    /** Every entity not in `top`, folded into one bucket. */
    RollupEntry other;
    std::int64_t entities = 0;
    std::int64_t observations = 0;
    std::int64_t alerts_fired = 0;
    std::int64_t alerts_firing = 0;
    /** All alerts, ordered by id (fire order). */
    std::vector<Alert> alerts;
};

/** Detector tuning shared by all Anomaly rules. */
struct DetectorSuiteConfig
{
    EwmaConfig ewma;
    RobustZConfig robust;
    FlatlineConfig flatline;
};

/** Plane-wide tuning. */
struct HealthConfig
{
    /** Rollup cardinality: named offender entries kept per snapshot. */
    std::size_t top_k = 8;
    /** Breaching observations retained per alert. */
    std::size_t max_evidence = 8;
    DetectorSuiteConfig detectors;
    /** Install the stock fleet rules (installDefaultRules). */
    bool default_rules = true;
};

/**
 * The streaming health plane. One global instance (plane()) is fed by
 * the engines; independent instances can be built for tests.
 */
class HealthPlane
{
  public:
    class Feed;

    HealthPlane();
    ~HealthPlane();
    HealthPlane(const HealthPlane &) = delete;
    HealthPlane &operator=(const HealthPlane &) = delete;

    /** Drop all state and rules, apply @p config, and (by default)
     *  reinstall the stock rules. */
    void configure(const HealthConfig &config);

    /** Reset state and rules under the current config. */
    void reset();

    void addRule(const AlertRule &rule);
    void clearRules();
    std::vector<AlertRule> rules() const;

    /** The id of signal @p name, interned on first use. Ids stay valid
     *  for the plane's lifetime (configure() and reset() keep them), so
     *  a caller resolves its signals once and feeds them by id. */
    SignalId signal(std::string_view name);

    /** Feed::observe() by signal name, as a one-call Feed. */
    void observe(EntityKind kind, std::int64_t entity,
                 const std::string &signal, std::int64_t bin, double t_s,
                 double value);

    /** Feed::advance() as a one-call Feed. */
    void advance(std::int64_t bin, double t_s);

    /** Final advance at end of run; firing alerts stay firing. */
    void finish(std::int64_t bin, double t_s);

    HealthSnapshot snapshot() const;

  private:
    struct Impl;
    Impl *impl_;
};

/**
 * The plane's lock held across a run of calls: an engine's serial fold
 * feeds a whole chunk through one Feed instead of locking once per
 * observation. While a Feed is alive, its thread must not call the
 * plane's own members (they would wait on the held lock).
 */
class HealthPlane::Feed
{
  public:
    explicit Feed(HealthPlane &plane);
    ~Feed();
    Feed(const Feed &) = delete;
    Feed &operator=(const Feed &) = delete;

    /**
     * Feed one observation of @p signal, an id from
     * HealthPlane::signal(). Callers must feed streams in a
     * deterministic serial order (engine index-order folds); bin/t_s
     * are sim time, never wall clock.
     */
    void observe(EntityKind kind, std::int64_t entity, SignalId signal,
                 std::int64_t bin, double t_s, double value);

    /** Update @p entity's journal lane window; subsequent alerts for
     *  the entity carry it as evidence. */
    void observeLane(EntityKind kind, std::int64_t entity,
                     std::uint64_t region, std::uint64_t slot,
                     std::uint32_t ord_lo, std::uint32_t ord_hi);

    /** Advance the plane's bin horizon: evaluates Absence rules
     *  against every stream seen so far. Call once per closed span
     *  (e.g. per engine chunk). */
    void advance(std::int64_t bin, double t_s);

  private:
    Impl &impl_;
};

/** The process-wide plane fed by the engines. */
HealthPlane &plane();

/** Health-plane master switch; defaults from the KODAN_ALERTS env var
 *  ("1"/"true"/"on", or any non-empty path-like value used as the
 *  alerts output path). Engines skip the health fold entirely when
 *  disabled, so default runs carry zero health overhead. */
bool healthEnabled();
void setHealthEnabled(bool on);

/** Stock fleet rules: storage-drop threshold, downlink absence, DVD
 *  robust-z anomaly, queue flatline. */
void installDefaultRules(HealthPlane &plane);

/** Alert JSONL: one header object, then one object per alert, field
 *  order fixed — the bytes are part of the determinism contract. */
void writeAlertsJsonl(const std::vector<Alert> &alerts,
                      std::ostream &out);

/** Human-oriented rollup + alert table (kodan-report health). */
void writeHealthTable(const HealthSnapshot &snapshot, std::ostream &out);

} // namespace kodan::telemetry::health

#endif // KODAN_TELEMETRY_HEALTH_HPP
