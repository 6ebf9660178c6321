#include "telemetry/health.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <ostream>
#include <tuple>
#include <utility>

#include "telemetry/exact_sum.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace kodan::telemetry::health {

namespace {

/** (kind, entity) — rollup key. */
using EntityKey = std::pair<int, std::int64_t>;

/** (kind, entity, signal) — stream key. Ordered maps keep every sweep
 *  (absence, snapshot) in a deterministic order. */
using StreamKey = std::tuple<int, std::int64_t, std::string>;

/** (rule index, kind, entity) — alert state key. */
using RuleKey = std::tuple<std::size_t, int, std::int64_t>;

struct RuleState
{
    explicit RuleState(const DetectorSuiteConfig &detectors)
        : ewma(detectors.ewma), robust(detectors.robust),
          flatline(detectors.flatline)
    {
    }

    std::int64_t breach_streak = 0;
    std::int64_t clear_streak = 0;
    /** Index into Impl::alerts while firing, -1 otherwise. */
    std::int64_t open_alert = -1;
    bool have_prev = false;
    double prev_value = 0.0;
    std::int64_t prev_bin = 0;
    /** Recent breaching observations, pending until the alert fires. */
    std::vector<AlertEvidence> pending;
    EwmaLevelShift ewma;
    RobustZScore robust;
    Flatline flatline;
};

struct Rollup
{
    std::int64_t observations = 0;
    std::int64_t anomalous = 0;
    std::int64_t alerts_fired = 0;
    std::int64_t last_bin = 0;
    detail::Fixed128 score;
    JournalWindow lane;
};

} // namespace

const char *
entityKindName(EntityKind kind)
{
    switch (kind) {
      case EntityKind::Satellite:
        return "satellite";
      case EntityKind::Station:
        return "station";
    }
    return "?";
}

struct HealthPlane::Impl
{
    mutable std::mutex mutex;
    HealthConfig config;
    std::vector<AlertRule> rules;
    /** Signals named by at least one Absence rule (deduped): only these
     *  streams need last-bin bookkeeping, which keeps the per-signal
     *  map update off the observe() hot path for everything else. */
    std::vector<std::string> absence_signals;
    std::map<EntityKey, Rollup> rollups;
    std::map<RuleKey, RuleState> states;
    /** Last bin each absence-watched stream reported in. */
    std::map<StreamKey, std::int64_t> stream_last_bin;
    std::vector<Alert> alerts;
    std::uint64_t next_alert_id = 1;
    std::int64_t observations = 0;
    std::int64_t alerts_fired = 0;

    void rebuildAbsenceSignals()
    {
        absence_signals.clear();
        for (const AlertRule &rule : rules) {
            if (rule.kind != AlertRule::Kind::Absence) {
                continue;
            }
            bool seen = false;
            for (const std::string &signal : absence_signals) {
                if (signal == rule.signal) {
                    seen = true;
                    break;
                }
            }
            if (!seen) {
                absence_signals.push_back(rule.signal);
            }
        }
    }

    bool absenceWatched(const std::string &signal) const
    {
        for (const std::string &watched : absence_signals) {
            if (watched == signal) {
                return true;
            }
        }
        return false;
    }

    /** One-entry memos for the observe() hot path: the engine folds
     *  feed runs of consecutive observations for the same entity, and
     *  node-based map values stay put, so a pointer memo skips the
     *  tree walk. Cleared whenever the backing maps are. */
    EntityKey memo_rollup_key{-1, -1};
    Rollup *memo_rollup = nullptr;
    RuleKey memo_state_key{0, -1, -1};
    RuleState *memo_state = nullptr;

    void dropMemos()
    {
        memo_rollup = nullptr;
        memo_state = nullptr;
    }

    Rollup &rollupFor(EntityKind kind, std::int64_t entity)
    {
        const EntityKey key{static_cast<int>(kind), entity};
        if (memo_rollup != nullptr && memo_rollup_key == key) {
            return *memo_rollup;
        }
        Rollup &rollup = rollups[key];
        memo_rollup_key = key;
        memo_rollup = &rollup;
        return rollup;
    }

    RuleState &stateFor(std::size_t rule_idx, EntityKind kind,
                        std::int64_t entity)
    {
        const RuleKey key{rule_idx, static_cast<int>(kind), entity};
        if (memo_state != nullptr && memo_state_key == key) {
            return *memo_state;
        }
        auto it = states.find(key);
        if (it == states.end()) {
            it = states.emplace(key, RuleState(config.detectors)).first;
        }
        memo_state_key = key;
        memo_state = &it->second;
        return it->second;
    }

    /** Drive one rule's firing→resolved machine with one evaluation. */
    void transition(const AlertRule &rule, RuleState &state,
                    Rollup &rollup, EntityKind kind, std::int64_t entity,
                    bool breach, std::int64_t bin, double t_s,
                    double value)
    {
        if (!breach) {
            state.breach_streak = 0;
            state.pending.clear();
            ++state.clear_streak;
            if (state.open_alert >= 0 &&
                state.clear_streak >= rule.clear_after) {
                Alert &alert =
                    alerts[static_cast<std::size_t>(state.open_alert)];
                alert.firing = false;
                state.open_alert = -1;
                KODAN_COUNT("health.alerts.resolved");
                if (journalEnabled()) {
                    JournalEventBuilder("health.alert.resolve")
                        .text("rule", rule.name)
                        .text("entity_kind", entityKindName(kind))
                        .i64("entity", entity)
                        .i64("bin", bin)
                        .f64("value", value);
                }
            }
            return;
        }
        state.clear_streak = 0;
        ++state.breach_streak;
        if (state.pending.size() >= config.max_evidence &&
            !state.pending.empty()) {
            state.pending.erase(state.pending.begin());
        }
        state.pending.push_back({bin, t_s, value});
        if (state.open_alert < 0) {
            if (state.breach_streak < rule.fire_after) {
                return;
            }
            Alert alert;
            alert.id = next_alert_id++;
            alert.rule = rule.name;
            alert.signal = rule.signal;
            alert.entity_kind = kind;
            alert.entity = entity;
            alert.firing = true;
            alert.first_bin = state.pending.front().bin;
            alert.last_bin = bin;
            alert.first_t_s = state.pending.front().t_s;
            alert.last_t_s = t_s;
            alert.peak_value = value;
            alert.last_value = value;
            alert.journal = rollup.lane;
            alert.evidence = state.pending;
            for (const AlertEvidence &ev : alert.evidence) {
                if (std::fabs(ev.value) >
                    std::fabs(alert.peak_value)) {
                    alert.peak_value = ev.value;
                }
            }
            state.open_alert = static_cast<std::int64_t>(alerts.size());
            alerts.push_back(std::move(alert));
            ++rollup.alerts_fired;
            ++alerts_fired;
            KODAN_COUNT("health.alerts.fired");
            if (journalEnabled()) {
                JournalEventBuilder("health.alert.fire")
                    .text("rule", rule.name)
                    .text("entity_kind", entityKindName(kind))
                    .i64("entity", entity)
                    .i64("bin", bin)
                    .f64("value", value);
            }
            return;
        }
        Alert &alert =
            alerts[static_cast<std::size_t>(state.open_alert)];
        alert.last_bin = bin;
        alert.last_t_s = t_s;
        alert.last_value = value;
        if (std::fabs(value) > std::fabs(alert.peak_value)) {
            alert.peak_value = value;
        }
        if (alert.evidence.size() < config.max_evidence) {
            alert.evidence.push_back({bin, t_s, value});
        }
        // The entity's lane keeps advancing while the alert burns;
        // widen the evidence window to cover it.
        if (rollup.lane.valid && alert.journal.valid &&
            rollup.lane.region == alert.journal.region &&
            rollup.lane.slot == alert.journal.slot) {
            alert.journal.ord_hi =
                std::max(alert.journal.ord_hi, rollup.lane.ord_hi);
        }
    }

    /** Evaluate the Absence rules against every known stream. */
    void sweepAbsence(std::int64_t bin, double t_s)
    {
        for (std::size_t r = 0; r < rules.size(); ++r) {
            const AlertRule &rule = rules[r];
            if (rule.kind != AlertRule::Kind::Absence) {
                continue;
            }
            for (const auto &[key, last] : stream_last_bin) {
                if (std::get<2>(key) != rule.signal) {
                    continue;
                }
                const auto kind =
                    static_cast<EntityKind>(std::get<0>(key));
                const std::int64_t entity = std::get<1>(key);
                const std::int64_t gap = bin - last;
                transition(rule, stateFor(r, kind, entity),
                           rollupFor(kind, entity), kind,
                           entity, gap > rule.gap_bins, bin, t_s,
                           static_cast<double>(gap));
            }
        }
    }
};

HealthPlane::HealthPlane() : impl_(new Impl)
{
    configure({});
}

HealthPlane::~HealthPlane()
{
    delete impl_;
}

void
HealthPlane::configure(const HealthConfig &config)
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->config = config;
        impl_->rules.clear();
        impl_->absence_signals.clear();
        impl_->dropMemos();
        impl_->rollups.clear();
        impl_->states.clear();
        impl_->stream_last_bin.clear();
        impl_->alerts.clear();
        impl_->next_alert_id = 1;
        impl_->observations = 0;
        impl_->alerts_fired = 0;
    }
    if (config.default_rules) {
        installDefaultRules(*this);
    }
}

void
HealthPlane::reset()
{
    HealthConfig config;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        config = impl_->config;
    }
    configure(config);
}

void
HealthPlane::addRule(const AlertRule &rule)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->rules.push_back(rule);
    impl_->rebuildAbsenceSignals();
}

void
HealthPlane::clearRules()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->rules.clear();
    impl_->absence_signals.clear();
    impl_->dropMemos();
    impl_->states.clear();
}

std::vector<AlertRule>
HealthPlane::rules() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->rules;
}

void
HealthPlane::observe(EntityKind kind, std::int64_t entity,
                     const std::string &signal, std::int64_t bin,
                     double t_s, double value)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    Impl &impl = *impl_;
    const double v = detectorQuantize(value);
    if (impl.absenceWatched(signal)) {
        impl.stream_last_bin[{static_cast<int>(kind), entity, signal}] =
            bin;
    }
    Rollup &rollup = impl.rollupFor(kind, entity);
    ++rollup.observations;
    rollup.last_bin = bin;
    ++impl.observations;

    double worst_score = 0.0;
    bool any_breach = false;
    for (std::size_t r = 0; r < impl.rules.size(); ++r) {
        const AlertRule &rule = impl.rules[r];
        if (rule.signal != signal) {
            continue;
        }
        if (rule.kind == AlertRule::Kind::Absence) {
            // A fresh observation is the absence rule's all-clear.
            RuleState &state = impl.stateFor(r, kind, entity);
            impl.transition(rule, state, rollup, kind, entity, false,
                            bin, t_s, v);
            continue;
        }
        RuleState &state = impl.stateFor(r, kind, entity);
        bool breach = false;
        double score = 0.0;
        switch (rule.kind) {
          case AlertRule::Kind::Threshold:
            breach = rule.op == AlertRule::Op::Gt ? v > rule.threshold
                                                  : v < rule.threshold;
            score = breach ? (rule.threshold != 0.0
                                  ? std::fabs(v / rule.threshold)
                                  : 1.0)
                           : 0.0;
            break;
          case AlertRule::Kind::Rate: {
            if (state.have_prev && bin > state.prev_bin) {
                const double rate =
                    std::fabs(v - state.prev_value) /
                    static_cast<double>(bin - state.prev_bin);
                breach = rate > rule.threshold;
                score = breach ? (rule.threshold != 0.0
                                      ? rate / rule.threshold
                                      : 1.0)
                               : 0.0;
            }
            state.have_prev = true;
            state.prev_value = v;
            state.prev_bin = bin;
            break;
          }
          case AlertRule::Kind::Anomaly: {
            Verdict verdict;
            switch (rule.detector) {
              case AlertRule::Detector::Ewma:
                verdict = state.ewma.step(v);
                break;
              case AlertRule::Detector::Robust:
                verdict = state.robust.step(v);
                break;
              case AlertRule::Detector::Flatline:
                verdict = state.flatline.step(v);
                break;
            }
            breach = verdict.anomalous;
            score = verdict.score;
            break;
          }
          case AlertRule::Kind::Absence:
            break;
        }
        impl.transition(rule, state, rollup, kind, entity, breach, bin,
                        t_s, v);
        if (breach) {
            any_breach = true;
            worst_score = std::max(worst_score, score);
        }
    }
    if (any_breach) {
        ++rollup.anomalous;
        detail::addFixed(rollup.score, detail::toFixed(worst_score));
    }
}

void
HealthPlane::observeLane(EntityKind kind, std::int64_t entity,
                         std::uint64_t region, std::uint64_t slot,
                         std::uint32_t ord_lo, std::uint32_t ord_hi)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    JournalWindow &lane = impl_->rollupFor(kind, entity).lane;
    if (lane.valid && lane.region == region && lane.slot == slot) {
        lane.ord_lo = std::min(lane.ord_lo, ord_lo);
        lane.ord_hi = std::max(lane.ord_hi, ord_hi);
    } else {
        lane = {region, slot, ord_lo, ord_hi, true};
    }
}

void
HealthPlane::advance(std::int64_t bin, double t_s)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->sweepAbsence(bin, t_s);
}

void
HealthPlane::finish(std::int64_t bin, double t_s)
{
    advance(bin, t_s);
}

HealthSnapshot
HealthPlane::snapshot() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const Impl &impl = *impl_;
    HealthSnapshot out;
    out.entities = static_cast<std::int64_t>(impl.rollups.size());
    out.observations = impl.observations;
    out.alerts_fired = impl.alerts_fired;
    out.alerts = impl.alerts;
    for (const Alert &alert : out.alerts) {
        if (alert.firing) {
            ++out.alerts_firing;
        }
    }

    std::vector<RollupEntry> entries;
    entries.reserve(impl.rollups.size());
    for (const auto &[key, rollup] : impl.rollups) {
        RollupEntry entry;
        entry.kind = static_cast<EntityKind>(key.first);
        entry.entity = key.second;
        entry.members = 1;
        entry.observations = rollup.observations;
        entry.anomalous = rollup.anomalous;
        entry.alerts_fired = rollup.alerts_fired;
        entry.score_sum = detail::fromFixed(rollup.score);
        entry.last_bin = rollup.last_bin;
        entries.push_back(entry);
    }
    std::sort(entries.begin(), entries.end(),
              [](const RollupEntry &a, const RollupEntry &b) {
                  if (a.alerts_fired != b.alerts_fired) {
                      return a.alerts_fired > b.alerts_fired;
                  }
                  if (a.anomalous != b.anomalous) {
                      return a.anomalous > b.anomalous;
                  }
                  if (a.score_sum != b.score_sum) {
                      return a.score_sum > b.score_sum;
                  }
                  if (a.kind != b.kind) {
                      return static_cast<int>(a.kind) <
                             static_cast<int>(b.kind);
                  }
                  return a.entity < b.entity;
              });
    const std::size_t keep =
        std::min(entries.size(), impl.config.top_k);
    out.top.assign(entries.begin(),
                   entries.begin() + static_cast<long>(keep));
    out.other.kind = EntityKind::Satellite;
    out.other.entity = -1;
    detail::Fixed128 other_score;
    for (std::size_t i = keep; i < entries.size(); ++i) {
        const RollupEntry &entry = entries[i];
        ++out.other.members;
        out.other.observations += entry.observations;
        out.other.anomalous += entry.anomalous;
        out.other.alerts_fired += entry.alerts_fired;
        detail::addFixed(other_score, detail::toFixed(entry.score_sum));
        out.other.last_bin =
            std::max(out.other.last_bin, entry.last_bin);
    }
    out.other.score_sum = detail::fromFixed(other_score);
    return out;
}

HealthPlane &
plane()
{
    // Leaked on purpose, like registry(): the telemetry exit hook
    // snapshots the plane from an atexit handler, which can run after
    // a function-local static's destructor would have torn it down.
    static HealthPlane *instance = new HealthPlane();
    return *instance;
}

namespace {

std::atomic<int> g_health_enabled{-1};

bool
envFalsy(const char *value)
{
    return value == nullptr || *value == '\0' ||
           std::strcmp(value, "0") == 0 ||
           std::strcmp(value, "false") == 0 ||
           std::strcmp(value, "off") == 0;
}

} // namespace

bool
healthEnabled()
{
    int state = g_health_enabled.load(std::memory_order_relaxed);
    if (state < 0) {
        // KODAN_ALERTS is both the toggle and (for path-like values)
        // the output destination; anything non-falsy enables.
        const bool on = !envFalsy(std::getenv("KODAN_ALERTS"));
        int expected = -1;
        g_health_enabled.compare_exchange_strong(
            expected, on ? 1 : 0, std::memory_order_relaxed);
        state = g_health_enabled.load(std::memory_order_relaxed);
    }
    return state != 0;
}

void
setHealthEnabled(bool on)
{
    g_health_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void
installDefaultRules(HealthPlane &plane)
{
    // Storage shed: any dropped bit is a hard fault worth an alert.
    AlertRule storage;
    storage.name = "storage.drop";
    storage.signal = "storage.dropped_bits";
    storage.kind = AlertRule::Kind::Threshold;
    storage.op = AlertRule::Op::Gt;
    storage.threshold = 0.0;
    storage.fire_after = 1;
    storage.clear_after = 2;
    plane.addRule(storage);

    // Downlink silence: healthy satellites drain every few bins; a
    // day-plus gap means a dead radio or a station dropping the queue.
    AlertRule absence;
    absence.name = "downlink.absence";
    absence.signal = "downlink.bits";
    absence.kind = AlertRule::Kind::Absence;
    absence.gap_bins = 48;
    absence.fire_after = 1;
    absence.clear_after = 1;
    plane.addRule(absence);

    // Value-density collapse: robust z against the satellite's own
    // recent DVD history (median/MAD tolerates the stochastic scatter).
    AlertRule dvd;
    dvd.name = "dvd.anomaly";
    dvd.signal = "dvd";
    dvd.kind = AlertRule::Kind::Anomaly;
    dvd.detector = AlertRule::Detector::Robust;
    dvd.fire_after = 2;
    dvd.clear_after = 2;
    plane.addRule(dvd);

    // Stuck recorder: a backlog that repeats the same bit pattern for
    // a whole window is pinned (e.g. saturated at the storage cap).
    AlertRule stuck;
    stuck.name = "queue.stuck";
    stuck.signal = "queue.depth_bits";
    stuck.kind = AlertRule::Kind::Anomaly;
    stuck.detector = AlertRule::Detector::Flatline;
    stuck.fire_after = 1;
    stuck.clear_after = 1;
    plane.addRule(stuck);
}

namespace {

void
writeAlertBody(const Alert &alert, std::ostream &out)
{
    out << "{\"id\":" << alert.id << ",\"rule\":\""
        << jsonEscape(alert.rule) << "\",\"signal\":\""
        << jsonEscape(alert.signal) << "\",\"kind\":\""
        << entityKindName(alert.entity_kind)
        << "\",\"entity\":" << alert.entity << ",\"state\":\""
        << (alert.firing ? "firing" : "resolved")
        << "\",\"first_bin\":" << alert.first_bin
        << ",\"last_bin\":" << alert.last_bin
        << ",\"first_t_s\":" << jsonNumber(alert.first_t_s)
        << ",\"last_t_s\":" << jsonNumber(alert.last_t_s)
        << ",\"peak\":" << jsonNumber(alert.peak_value)
        << ",\"last\":" << jsonNumber(alert.last_value) << ",\"journal\":";
    if (alert.journal.valid) {
        out << "{\"region\":" << alert.journal.region
            << ",\"slot\":" << alert.journal.slot
            << ",\"ord_lo\":" << alert.journal.ord_lo
            << ",\"ord_hi\":" << alert.journal.ord_hi << "}";
    } else {
        out << "null";
    }
    out << ",\"evidence\":[";
    for (std::size_t i = 0; i < alert.evidence.size(); ++i) {
        const AlertEvidence &ev = alert.evidence[i];
        if (i != 0) {
            out << ",";
        }
        out << "{\"bin\":" << ev.bin << ",\"t_s\":" << jsonNumber(ev.t_s)
            << ",\"value\":" << jsonNumber(ev.value) << "}";
    }
    out << "]}";
}

} // namespace

void
writeAlertsJsonl(const std::vector<Alert> &alerts, std::ostream &out)
{
    std::size_t firing = 0;
    for (const Alert &alert : alerts) {
        if (alert.firing) {
            ++firing;
        }
    }
    out << "{\"kodan_alerts\":1,\"alerts\":" << alerts.size()
        << ",\"firing\":" << firing << "}\n";
    for (const Alert &alert : alerts) {
        writeAlertBody(alert, out);
        out << "\n";
    }
}

void
writeHealthTable(const HealthSnapshot &snapshot, std::ostream &out)
{
    out << "entities=" << snapshot.entities
        << " observations=" << snapshot.observations
        << " alerts_fired=" << snapshot.alerts_fired
        << " firing=" << snapshot.alerts_firing << "\n";
    out << "  entity             obs    anomalous  alerts  score\n";
    const auto row = [&out](const std::string &label,
                            const RollupEntry &entry) {
        out << "  " << label;
        for (std::size_t pad = label.size(); pad < 17; ++pad) {
            out << ' ';
        }
        out << "  " << entry.observations << "  " << entry.anomalous
            << "  " << entry.alerts_fired << "  " << entry.score_sum
            << "\n";
    };
    for (const RollupEntry &entry : snapshot.top) {
        row(std::string(entityKindName(entry.kind)) + "/" +
                std::to_string(entry.entity),
            entry);
    }
    if (snapshot.other.members > 0) {
        row("other(" + std::to_string(snapshot.other.members) + ")",
            snapshot.other);
    }
    for (const Alert &alert : snapshot.alerts) {
        out << "  [" << (alert.firing ? "firing" : "resolved") << "] "
            << alert.rule << " " << entityKindName(alert.entity_kind)
            << "/" << alert.entity << " bins " << alert.first_bin
            << ".." << alert.last_bin << " peak " << alert.peak_value
            << " last " << alert.last_value << "\n";
    }
}

} // namespace kodan::telemetry::health
