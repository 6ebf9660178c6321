#include "telemetry/health.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <utility>
#include <variant>

#include "telemetry/exact_sum.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace kodan::telemetry::health {

namespace {

/** (kind, entity) — entity key, ordered as the absence sweep visits. */
using EntityKey = std::pair<int, std::int64_t>;

/** Entity::last_bin of a stream that never reported (no bin is this
 *  small). */
constexpr std::int64_t kNeverReported =
    std::numeric_limits<std::int64_t>::min();

struct RuleState
{
    std::int64_t breach_streak = 0;
    std::int64_t clear_streak = 0;
    /** Index into Impl::alerts while firing, -1 otherwise. */
    std::int64_t open_alert = -1;
    bool have_prev = false;
    double prev_value = 0.0;
    std::int64_t prev_bin = 0;
    /** Recent breaching observations, pending until the alert fires. */
    std::vector<AlertEvidence> pending;
    /** The Anomaly rule's detector, built on its first observation. */
    std::variant<std::monostate, EwmaLevelShift, RobustZScore, Flatline>
        detector;
};

/** Step @p state's detector of type D, building it on first use. */
template <typename D, typename Config>
Verdict
stepDetector(RuleState &state, const Config &config, double value)
{
    D *detector = std::get_if<D>(&state.detector);
    if (detector == nullptr) {
        detector = &state.detector.emplace<D>(config);
    }
    return detector->step(value);
}

struct Rollup
{
    std::int64_t observations = 0;
    std::int64_t anomalous = 0;
    std::int64_t alerts_fired = 0;
    std::int64_t last_bin = 0;
    detail::Fixed128 score;
    JournalWindow lane;
};

/** One (kind, entity): its rollup and its per-rule alert state. */
struct Entity
{
    EntityKey key;
    Rollup rollup;
    /** Indexed by rule; grown to the rule count on first evaluation. */
    std::vector<RuleState> states;
    /** Indexed by signal id: the last bin this entity reported the
     *  signal in while an Absence rule watched it. */
    std::vector<std::int64_t> last_bin;

    EntityKind kind() const { return static_cast<EntityKind>(key.first); }
};

/** One interned signal name and the rules that watch it. */
struct Signal
{
    std::string name;
    /** Indices of the rules selecting this signal, in rule order. */
    std::vector<std::uint32_t> rules;
    /** An Absence rule selects this signal: observations record their
     *  bin in Entity::last_bin. */
    bool absence_watched = false;
    /** Entities whose stream of this signal the absence sweep visits,
     *  ordered by key. Kept across clearRules(), like their last bins. */
    std::vector<std::uint32_t> reporters;
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
    /** rules[r]'s signal id. */
    std::vector<SignalId> rule_signals;
    /** Interned signal names; ids index this and never change. */
    std::vector<Signal> signals;
    std::vector<Entity> entities;
    /** Entity slot by key, consulted when the entity changes. */
    std::map<EntityKey, std::uint32_t> entity_slots;
    /** The last entity looked up: the engine folds feed runs of
     *  observations for one entity, so most lookups stop here. */
    EntityKey last_key{-1, -1};
    std::uint32_t last_slot = 0;
    std::vector<Alert> alerts;
    std::uint64_t next_alert_id = 1;
    std::int64_t observations = 0;
    std::int64_t alerts_fired = 0;

    SignalId intern(std::string_view name)
    {
        for (std::size_t i = 0; i < signals.size(); ++i) {
            if (signals[i].name == name) {
                return static_cast<SignalId>(i);
            }
        }
        signals.push_back({std::string(name), {}, false, {}});
        return static_cast<SignalId>(signals.size() - 1);
    }

    /** Drop every rule and rule state; streams and rollups stay. */
    void dropRules()
    {
        rules.clear();
        rule_signals.clear();
        for (Signal &signal : signals) {
            signal.rules.clear();
            signal.absence_watched = false;
        }
        for (Entity &entity : entities) {
            entity.states.clear();
        }
    }

    /** The slot of (kind, id), made on first sight. */
    std::uint32_t slotFor(EntityKind kind, std::int64_t id)
    {
        const EntityKey key{static_cast<int>(kind), id};
        return key == last_key ? last_slot : lookupSlot(key);
    }

    std::uint32_t lookupSlot(const EntityKey &key);

    RuleState &stateFor(Entity &entity, std::size_t rule_idx)
    {
        if (entity.states.size() <= rule_idx) {
            entity.states.resize(rules.size());
        }
        return entity.states[rule_idx];
    }

    /** Record that @p slot reported absence-watched @p signal in @p bin. */
    void noteReport(std::uint32_t slot, SignalId signal, std::int64_t bin)
    {
        Entity &entity = entities[slot];
        if (entity.last_bin.size() <= signal) {
            entity.last_bin.resize(signals.size(), kNeverReported);
        }
        if (entity.last_bin[signal] == kNeverReported) {
            std::vector<std::uint32_t> &reporters =
                signals[signal].reporters;
            reporters.insert(
                std::upper_bound(reporters.begin(), reporters.end(),
                                 entity.key,
                                 [this](const EntityKey &key,
                                        std::uint32_t other) {
                                     return key < entities[other].key;
                                 }),
                slot);
        }
        entity.last_bin[signal] = bin;
    }

    /** Drive one rule's firing→resolved machine with one evaluation.
     *  The clear path is the common one and stays small. */
    void transition(const AlertRule &rule, RuleState &state,
                    Entity &entity, bool breach, std::int64_t bin,
                    double t_s, double value)
    {
        if (breach) {
            onBreach(rule, state, entity, bin, t_s, value);
            return;
        }
        state.breach_streak = 0;
        state.pending.clear();
        ++state.clear_streak;
        if (state.open_alert >= 0 &&
            state.clear_streak >= rule.clear_after) {
            resolve(rule, state, entity, bin, value);
        }
    }

    void resolve(const AlertRule &rule, RuleState &state,
                 const Entity &entity, std::int64_t bin, double value)
    {
        alerts[static_cast<std::size_t>(state.open_alert)].firing = false;
        state.open_alert = -1;
        KODAN_COUNT("health.alerts.resolved");
        if (journalEnabled()) {
            JournalEventBuilder("health.alert.resolve")
                .text("rule", rule.name)
                .text("entity_kind", entityKindName(entity.kind()))
                .i64("entity", entity.key.second)
                .i64("bin", bin)
                .f64("value", value);
        }
    }

    void onBreach(const AlertRule &rule, RuleState &state, Entity &entity,
                  std::int64_t bin, double t_s, double value)
    {
        Rollup &rollup = entity.rollup;
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
            alert.entity_kind = entity.kind();
            alert.entity = entity.key.second;
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
                    .text("entity_kind", entityKindName(entity.kind()))
                    .i64("entity", entity.key.second)
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
            const SignalId signal = rule_signals[r];
            for (const std::uint32_t slot : signals[signal].reporters) {
                Entity &entity = entities[slot];
                const std::int64_t gap = bin - entity.last_bin[signal];
                transition(rule, stateFor(entity, r), entity,
                           gap > rule.gap_bins, bin, t_s,
                           static_cast<double>(gap));
            }
        }
    }
};

std::uint32_t
HealthPlane::Impl::lookupSlot(const EntityKey &key)
{
    const auto [it, inserted] = entity_slots.try_emplace(
        key, static_cast<std::uint32_t>(entities.size()));
    if (inserted) {
        entities.push_back({key, {}, {}, {}});
    }
    last_key = key;
    last_slot = it->second;
    return last_slot;
}

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
        impl_->dropRules();
        for (Signal &signal : impl_->signals) {
            signal.reporters.clear();
        }
        impl_->entities.clear();
        impl_->entity_slots.clear();
        impl_->last_key = {-1, -1};
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
    Impl &impl = *impl_;
    const SignalId signal = impl.intern(rule.signal);
    impl.signals[signal].rules.push_back(
        static_cast<std::uint32_t>(impl.rules.size()));
    if (rule.kind == AlertRule::Kind::Absence) {
        impl.signals[signal].absence_watched = true;
    }
    impl.rules.push_back(rule);
    impl.rule_signals.push_back(signal);
}

void
HealthPlane::clearRules()
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->dropRules();
}

std::vector<AlertRule>
HealthPlane::rules() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->rules;
}

SignalId
HealthPlane::signal(std::string_view name)
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->intern(name);
}

void
HealthPlane::observe(EntityKind kind, std::int64_t entity,
                     const std::string &signal, std::int64_t bin,
                     double t_s, double value)
{
    const SignalId id = this->signal(signal);
    Feed(*this).observe(kind, entity, id, bin, t_s, value);
}

void
HealthPlane::advance(std::int64_t bin, double t_s)
{
    Feed(*this).advance(bin, t_s);
}

void
HealthPlane::finish(std::int64_t bin, double t_s)
{
    advance(bin, t_s);
}

HealthPlane::Feed::Feed(HealthPlane &plane) : impl_(*plane.impl_)
{
    impl_.mutex.lock();
}

HealthPlane::Feed::~Feed()
{
    impl_.mutex.unlock();
}

void
HealthPlane::Feed::observe(EntityKind kind, std::int64_t entity,
                           SignalId signal, std::int64_t bin, double t_s,
                           double value)
{
    Impl &impl = impl_;
    if (signal >= impl.signals.size()) {
        util::panic("health: observe() with unknown signal id " +
                    std::to_string(signal));
    }
    const double v = detectorQuantize(value);
    const std::uint32_t slot = impl.slotFor(kind, entity);
    if (impl.signals[signal].absence_watched) {
        impl.noteReport(slot, signal, bin);
    }
    Entity &ent = impl.entities[slot];
    Rollup &rollup = ent.rollup;
    ++rollup.observations;
    rollup.last_bin = bin;
    ++impl.observations;

    double worst_score = 0.0;
    bool any_breach = false;
    for (const std::uint32_t r : impl.signals[signal].rules) {
        const AlertRule &rule = impl.rules[r];
        RuleState &state = impl.stateFor(ent, r);
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
          case AlertRule::Kind::Rate:
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
          case AlertRule::Kind::Absence:
            // A fresh observation is the absence rule's all-clear.
            impl.transition(rule, state, ent, false, bin, t_s, v);
            continue;
          case AlertRule::Kind::Anomaly: {
            const DetectorSuiteConfig &detectors = impl.config.detectors;
            Verdict verdict;
            switch (rule.detector) {
              case AlertRule::Detector::Ewma:
                verdict = stepDetector<EwmaLevelShift>(
                    state, detectors.ewma, v);
                break;
              case AlertRule::Detector::Robust:
                verdict = stepDetector<RobustZScore>(
                    state, detectors.robust, v);
                break;
              case AlertRule::Detector::Flatline:
                verdict = stepDetector<Flatline>(
                    state, detectors.flatline, v);
                break;
            }
            breach = verdict.anomalous;
            score = verdict.score;
            break;
          }
        }
        impl.transition(rule, state, ent, breach, bin, t_s, v);
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
HealthPlane::Feed::observeLane(EntityKind kind, std::int64_t entity,
                               std::uint64_t region, std::uint64_t slot,
                               std::uint32_t ord_lo, std::uint32_t ord_hi)
{
    JournalWindow &lane =
        impl_.entities[impl_.slotFor(kind, entity)].rollup.lane;
    if (lane.valid && lane.region == region && lane.slot == slot) {
        lane.ord_lo = std::min(lane.ord_lo, ord_lo);
        lane.ord_hi = std::max(lane.ord_hi, ord_hi);
    } else {
        lane = {region, slot, ord_lo, ord_hi, true};
    }
}

void
HealthPlane::Feed::advance(std::int64_t bin, double t_s)
{
    impl_.sweepAbsence(bin, t_s);
}

HealthSnapshot
HealthPlane::snapshot() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    const Impl &impl = *impl_;
    HealthSnapshot out;
    out.entities = static_cast<std::int64_t>(impl.entities.size());
    out.observations = impl.observations;
    out.alerts_fired = impl.alerts_fired;
    out.alerts = impl.alerts;
    for (const Alert &alert : out.alerts) {
        if (alert.firing) {
            ++out.alerts_firing;
        }
    }

    // The sort below is a total order (ties break on kind, entity), so
    // the entities' slot order does not reach the output.
    std::vector<RollupEntry> entries;
    entries.reserve(impl.entities.size());
    for (const Entity &entity : impl.entities) {
        const Rollup &rollup = entity.rollup;
        RollupEntry entry;
        entry.kind = static_cast<EntityKind>(entity.key.first);
        entry.entity = entity.key.second;
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
