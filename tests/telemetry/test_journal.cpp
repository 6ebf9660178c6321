/**
 * @file
 * Flight-recorder suite: the journal's (region, slot, ord) ordering
 * contract, byte-identical JSONL export across thread counts for the
 * batch runtime (the mission engine's journal is pinned across threads
 * and shards in test_constellation.cpp), ring-mode bounded memory, and
 * round-trip parsing of the JSONL / Chrome-trace exports of a mission
 * with the in-tree JSON reader.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../core/fixture.hpp"
#include "core/kodan.hpp"
#include "sim/constellation.hpp"
#include "telemetry/telemetry.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace kodan::telemetry {
namespace {

namespace json = kodan::util::json;

/** Restores journal/metrics state and the thread default on exit. */
class JournalGuard
{
  public:
    JournalGuard()
        : metrics_were_enabled_(enabled()),
          journal_was_enabled_(journalEnabled()),
          saved_ring_(journalRingCapacity())
    {
        resetAll();
        setJournalRingCapacity(0);
    }

    ~JournalGuard()
    {
        setEnabled(metrics_were_enabled_);
        setJournalEnabled(journal_was_enabled_);
        setJournalRingCapacity(saved_ring_);
        resetAll();
        util::setGlobalThreads(0);
    }

  private:
    bool metrics_were_enabled_;
    bool journal_was_enabled_;
    std::size_t saved_ring_;
};

/** Serialize the whole collected journal to a string. */
std::string
exportJournal()
{
    std::ostringstream out;
    writeJournalJsonl(collectJournal(), journalDroppedEvents(), out);
    return out.str();
}

sim::ConstellationConfig
smallMission()
{
    sim::ConstellationConfig config;
    config.mission = sim::MissionConfig::landsatConstellation(3);
    config.mission.duration = 2.0 * 3600.0;
    config.mission.scheduler_step = 30.0;
    config.mission.contact_scan_step = 60.0;
    config.storage_bits = std::numeric_limits<double>::infinity();
    return config;
}

TEST(Journal, OrderingKeyFollowsRegionsAndScopes)
{
    JournalGuard guard;
    setJournalEnabled(true);
    {
        JournalRegion region("unit.work");
        EXPECT_GT(region.id(), 0u);
        JournalEventBuilder("unit.step").i64("k", 1);
        {
            JournalScope scope(region.id(), 3);
            JournalEventBuilder("unit.item").i64("k", 2);
            JournalEventBuilder("unit.item").i64("k", 3);
        }
        // Cursor restored to the region's own lane after the scope.
        JournalEventBuilder("unit.step").i64("k", 4);
    }
    const auto events = collectJournal();
    ASSERT_EQ(events.size(), 5u);
    // Slot 0 lane: begin, then the two region-level steps in ord order.
    EXPECT_EQ(events[0].type, "unit.work.begin");
    EXPECT_EQ(events[0].slot, 0u);
    EXPECT_EQ(events[0].ord, 0u);
    EXPECT_EQ(events[1].type, "unit.step");
    EXPECT_EQ(events[1].ord, 1u);
    EXPECT_EQ(events[2].type, "unit.step");
    EXPECT_EQ(events[2].ord, 2u);
    // Work item 3 sorts after the whole slot-0 lane, into slot 4.
    EXPECT_EQ(events[3].type, "unit.item");
    EXPECT_EQ(events[3].slot, 4u);
    EXPECT_EQ(events[3].ord, 0u);
    EXPECT_EQ(events[4].slot, 4u);
    EXPECT_EQ(events[4].ord, 1u);
    // All events share the region id.
    for (const auto &event : events) {
        EXPECT_EQ(event.region, events[0].region);
    }
}

TEST(Journal, DisabledJournalRecordsNothing)
{
    JournalGuard guard;
    setJournalEnabled(false);
    JournalRegion region("unit.off");
    EXPECT_EQ(region.id(), 0u);
    JournalEventBuilder("unit.never").i64("k", 1);
    EXPECT_TRUE(collectJournal().empty());
}

TEST(Journal, RuntimeBatchJournalBytesInvariantToThreadCount)
{
    JournalGuard guard;
    setJournalEnabled(true);
    const auto &pipeline = kodan::testing::SharedPipeline::instance();
    core::SelectionLogic logic;
    logic.tiles_per_side = 6;
    logic.per_context.assign(
        pipeline.shared.partition.context_count,
        {core::ActionKind::RunModel, pipeline.app4.zoo.reference});
    const core::Runtime runtime(logic, pipeline.shared.engine.get(),
                                &pipeline.app4.zoo, hw::Target::Orin15W);

    util::setGlobalThreads(1);
    runtime.processFrames(pipeline.shared.val);
    const std::string serial = exportJournal();
    EXPECT_NE(serial.find("runtime.batch.begin"), std::string::npos);
    EXPECT_NE(serial.find("runtime.frame.decision"), std::string::npos);
    EXPECT_NE(serial.find("runtime.frame.elision"), std::string::npos);
    clearJournal();

    util::setGlobalThreads(7);
    runtime.processFrames(pipeline.shared.val);
    const std::string parallel = exportJournal();
    EXPECT_EQ(serial, parallel);
}

TEST(Journal, RingModeBoundsMemoryAndCountsDrops)
{
    JournalGuard guard;
    setJournalEnabled(true);
    setJournalRingCapacity(4);
    for (int i = 0; i < 10; ++i) {
        JournalEventBuilder("unit.ring").i64("i", i);
    }
    const auto events = collectJournal();
    EXPECT_EQ(events.size(), 4u);
    EXPECT_EQ(journalDroppedEvents(), 6u);
    // Drop-oldest: the newest events survive.
    ASSERT_FALSE(events.empty());
    ASSERT_EQ(events.back().fields.size(), 1u);
    EXPECT_EQ(events.back().fields[0].i, 9);
}

TEST(Journal, RingModeExportStaysWellFormed)
{
    JournalGuard guard;
    setJournalEnabled(true);
    setJournalRingCapacity(8);
    for (int i = 0; i < 100; ++i) {
        JournalEventBuilder("unit.ring").i64("i", i);
    }
    const std::string text = exportJournal();

    std::vector<json::Value> lines;
    std::string error;
    ASSERT_TRUE(json::parseLines(text, lines, &error)) << error;
    ASSERT_EQ(lines.size(), 9u); // header + the 8 retained events
    // Header reports both the surviving count and the overflow.
    const json::Value &header = lines.front();
    EXPECT_EQ(header.numberOr("events", -1.0), 8.0);
    EXPECT_EQ(header.numberOr("dropped", -1.0), 92.0);
    // The retained window is the newest events, still in order.
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].numberOr("seq", -1.0),
                  static_cast<double>(i - 1));
        const json::Value *fields = lines[i].find("fields");
        ASSERT_NE(fields, nullptr);
        EXPECT_EQ(fields->numberOr("i", -1.0),
                  static_cast<double>(92 + i - 1));
    }
}

TEST(Journal, RingModeBoundsEveryThreadBuffer)
{
    JournalGuard guard;
    setJournalEnabled(true);
    setJournalRingCapacity(16);
    constexpr std::size_t kEvents = 4096;
    util::setGlobalThreads(7);
    util::parallelFor(kEvents, [](std::size_t i) {
        JournalEventBuilder("unit.flood").i64("i",
                                              static_cast<std::int64_t>(i));
    });
    const auto events = collectJournal();
    // The bound is per recording thread: with a 7-thread pool (+ the
    // caller) at most 8 buffers of 16 survive, never the full flood.
    EXPECT_LE(events.size(), 8u * 16u);
    EXPECT_EQ(events.size() + journalDroppedEvents(), kEvents);
}

TEST(Journal, JsonlExportRoundTripsThroughJsonReader)
{
    JournalGuard guard;
    setJournalEnabled(true);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    engine.run(smallMission(), filter);
    const std::string text = exportJournal();

    std::vector<json::Value> lines;
    std::string error;
    ASSERT_TRUE(json::parseLines(text, lines, &error)) << error;
    ASSERT_GT(lines.size(), 1u);
    // Header declares the exact event count.
    const json::Value &header = lines.front();
    ASSERT_NE(header.find("kodan_journal"), nullptr);
    EXPECT_EQ(header.numberOr("events", -1.0),
              static_cast<double>(lines.size() - 1));
    // Every event line is well-formed; seq counts up from 0 and the
    // (region, slot, ord) key is non-decreasing (the sort invariant).
    std::uint64_t prev_key[3] = {0, 0, 0};
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const json::Value &event = lines[i];
        ASSERT_TRUE(event.isObject());
        EXPECT_EQ(event.numberOr("seq", -1.0),
                  static_cast<double>(i - 1));
        ASSERT_FALSE(event.stringOr("type", "").empty());
        ASSERT_NE(event.find("fields"), nullptr);
        const std::uint64_t key[3] = {
            static_cast<std::uint64_t>(event.numberOr("region", 0.0)),
            static_cast<std::uint64_t>(event.numberOr("slot", 0.0)),
            static_cast<std::uint64_t>(event.numberOr("ord", 0.0)),
        };
        const bool non_decreasing =
            key[0] != prev_key[0]
                ? key[0] > prev_key[0]
                : key[1] != prev_key[1] ? key[1] > prev_key[1]
                                        : key[2] >= prev_key[2];
        EXPECT_TRUE(non_decreasing) << "line " << i + 1;
        prev_key[0] = key[0];
        prev_key[1] = key[1];
        prev_key[2] = key[2];
    }
}

TEST(Journal, JsonlExportEscapesTypeNamesAndText)
{
    JournalEvent event;
    event.region = 7;
    event.slot = 2;
    event.ord = 5;
    event.type = "a\"b\\c\x01" "d";
    JournalField count;
    count.name = "n\"a\\m\te";
    count.kind = JournalField::Kind::Int;
    count.i = -42;
    JournalField ratio;
    ratio.name = "f";
    ratio.kind = JournalField::Kind::Float;
    ratio.f = 0.1;
    JournalField note;
    note.name = "t\x1f";
    note.kind = JournalField::Kind::Text;
    note.s = "x\"y\\z\nw";
    event.fields = {count, ratio, note};

    std::ostringstream out;
    writeJournalJsonl({event}, 3, out);
    EXPECT_EQ(out.str(),
              "{\"kodan_journal\": 1, \"events\": 1, \"dropped\": 3}\n"
              R"({"seq": 0, "region": 7, "slot": 2, "ord": 5, )"
              R"("type": "a\"b\\c\u0001d", "fields": {"n\"a\\m\te": -42, )"
              R"("f": 0.10000000000000001, "t\u001f": "x\"y\\z\nw"}})"
              "\n");
}

TEST(Journal, ChromeTraceExportRoundTripsThroughJsonReader)
{
    JournalGuard guard;
    setEnabled(true);
    const sim::ConstellationEngine engine(nullptr, 1.0 / 3.0);
    sim::FilterBehavior filter;
    filter.frame_time = 40.0;
    engine.run(smallMission(), filter);
    setEnabled(false);

    Tracer &tracer = Tracer::instance();
    std::ostringstream out;
    writeChromeTrace(tracer.collect(), tracer.droppedEvents(), out);

    json::Value doc;
    std::string error;
    ASSERT_TRUE(json::parse(out.str(), doc, &error)) << error;
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_FALSE(events->array().empty());
    // Well-formed events in monotone (sorted-by-start) timestamp order.
    double prev_ts = -1.0;
    for (const json::Value &event : events->array()) {
        ASSERT_TRUE(event.isObject());
        EXPECT_FALSE(event.stringOr("name", "").empty());
        const double ts = event.numberOr("ts", -1.0);
        EXPECT_GE(ts, prev_ts);
        prev_ts = ts;
        const std::string ph = event.stringOr("ph", "");
        EXPECT_TRUE(ph == "X" || ph == "i");
        if (ph == "X") {
            EXPECT_GE(event.numberOr("dur", -1.0), 0.0);
        }
    }
}

} // namespace
} // namespace kodan::telemetry
