#include "telemetry/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "telemetry/exact_sum.hpp"
#include "telemetry/export.hpp"

namespace kodan::telemetry {

namespace {

/** Per-thread, per-bin accumulation state. */
struct LocalBin
{
    std::int64_t count = 0;
    detail::Fixed128 sum;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
};

/** Registration-time metadata of one series. */
struct SeriesMeta
{
    std::string name;
    double bin_width_s = kTimeSeriesDefaultBinS;
    std::size_t max_bins = kTimeSeriesDefaultMaxBins;
};

/**
 * One thread's bins, indexed by series id. Only the owning thread
 * records; the mutex makes snapshot()/clear() from other threads
 * race-free (same shape as JournalBuffer).
 */
class SeriesBuffer
{
  public:
    void record(SeriesId id, std::int64_t bin, double value,
                std::size_t max_bins)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (per_series_.size() <= id) {
            per_series_.resize(id + 1);
            dropped_.resize(id + 1, 0);
        }
        auto &bins = per_series_[id];
        LocalBin &slot = bins[bin];
        ++slot.count;
        detail::addFixed(slot.sum, detail::toFixed(value));
        slot.min = std::min(slot.min, value);
        slot.max = std::max(slot.max, value);
        while (max_bins > 0 && bins.size() > max_bins) {
            bins.erase(bins.begin()); // lowest index = oldest sim time
            ++dropped_[id];
        }
    }

    void collectInto(
        SeriesId id,
        std::map<std::int64_t, LocalBin> &merged_bins,
        std::uint64_t &dropped) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (per_series_.size() <= id) {
            return;
        }
        for (const auto &[bin, local] : per_series_[id]) {
            LocalBin &merged = merged_bins[bin];
            merged.count += local.count;
            detail::addFixed(merged.sum, local.sum);
            merged.min = std::min(merged.min, local.min);
            merged.max = std::max(merged.max, local.max);
        }
        dropped += dropped_[id];
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        per_series_.clear();
        dropped_.clear();
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::map<std::int64_t, LocalBin>> per_series_;
    std::vector<std::uint64_t> dropped_;
};

/** Owns series registrations and every thread's buffer (leaked, like
 *  MetricsRegistry / JournalStore). */
class TimeSeriesStore
{
  public:
    static TimeSeriesStore &instance()
    {
        static TimeSeriesStore *store = new TimeSeriesStore();
        return *store;
    }

    SeriesId registerSeries(const std::string &name, double bin_width_s,
                            std::size_t max_bins)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < meta_.size(); ++i) {
            if (meta_[i].name == name) {
                return i + 1;
            }
        }
        SeriesMeta meta;
        meta.name = name;
        meta.bin_width_s = bin_width_s > 0.0 ? bin_width_s
                                             : kTimeSeriesDefaultBinS;
        meta.max_bins = max_bins;
        meta_.push_back(std::move(meta));
        return meta_.size();
    }

    SeriesMeta metaOf(SeriesId id) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (id == 0 || id > meta_.size()) {
            return {};
        }
        return meta_[id - 1];
    }

    SeriesBuffer &threadBuffer()
    {
        thread_local SeriesBuffer *buffer = [this] {
            auto owned = std::make_unique<SeriesBuffer>();
            SeriesBuffer *raw = owned.get();
            std::lock_guard<std::mutex> lock(mutex_);
            buffers_.push_back(std::move(owned));
            return raw;
        }();
        return *buffer;
    }

    TimeSeriesSnapshot snapshot() const
    {
        std::vector<SeriesMeta> meta;
        std::vector<const SeriesBuffer *> buffers;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            meta = meta_;
            buffers.reserve(buffers_.size());
            for (const auto &buffer : buffers_) {
                buffers.push_back(buffer.get());
            }
        }
        TimeSeriesSnapshot snap;
        snap.series.reserve(meta.size());
        for (std::size_t i = 0; i < meta.size(); ++i) {
            SeriesSample sample;
            sample.name = meta[i].name;
            sample.bin_width_s = meta[i].bin_width_s;
            std::map<std::int64_t, LocalBin> merged;
            for (const SeriesBuffer *buffer : buffers) {
                buffer->collectInto(i + 1, merged, sample.dropped_bins);
            }
            sample.bins.reserve(merged.size());
            for (const auto &[bin, local] : merged) {
                TimeSeriesBin out;
                out.index = bin;
                out.count = local.count;
                out.sum = detail::fromFixed(local.sum);
                out.min = local.min;
                out.max = local.max;
                sample.bins.push_back(out);
            }
            snap.series.push_back(std::move(sample));
        }
        std::sort(snap.series.begin(), snap.series.end(),
                  [](const SeriesSample &a, const SeriesSample &b) {
                      return a.name < b.name;
                  });
        return snap;
    }

    void clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buffer : buffers_) {
            buffer->clear();
        }
    }

  private:
    TimeSeriesStore() = default;

    mutable std::mutex mutex_;
    std::vector<SeriesMeta> meta_;
    std::vector<std::unique_ptr<SeriesBuffer>> buffers_;
};

} // namespace

const SeriesSample *
TimeSeriesSnapshot::find(const std::string &name) const
{
    for (const auto &sample : series) {
        if (sample.name == name) {
            return &sample;
        }
    }
    return nullptr;
}

SeriesId
timeSeries(const std::string &name, double bin_width_s,
           std::size_t max_bins)
{
    return TimeSeriesStore::instance().registerSeries(name, bin_width_s,
                                                      max_bins);
}

double
timeSeriesBinWidth(SeriesId id)
{
    return TimeSeriesStore::instance().metaOf(id).bin_width_s;
}

void
timeSeriesRecord(SeriesId id, double sim_time_s, double value)
{
    if (id == 0 || !std::isfinite(sim_time_s) || !std::isfinite(value)) {
        return;
    }
    TimeSeriesStore &store = TimeSeriesStore::instance();
    const SeriesMeta meta = store.metaOf(id);
    if (meta.name.empty()) {
        return;
    }
    const std::int64_t bin = static_cast<std::int64_t>(
        std::floor(sim_time_s / meta.bin_width_s));
    store.threadBuffer().record(id, bin, value, meta.max_bins);
}

TimeSeriesSnapshot
timeSeriesSnapshot()
{
    return TimeSeriesStore::instance().snapshot();
}

void
clearTimeSeries()
{
    TimeSeriesStore::instance().clear();
}

void
writeTimeSeriesJson(const TimeSeriesSnapshot &snapshot, std::ostream &os)
{
    os << "{\"kodan_timeseries\": 1, \"series\": [";
    for (std::size_t s = 0; s < snapshot.series.size(); ++s) {
        const SeriesSample &series = snapshot.series[s];
        os << (s > 0 ? ",\n" : "\n") << "  {\"name\": \""
           << jsonEscape(series.name) << "\", \"bin_s\": "
           << jsonNumber(series.bin_width_s) << ", \"dropped_bins\": "
           << series.dropped_bins << ", \"bins\": [";
        for (std::size_t b = 0; b < series.bins.size(); ++b) {
            const TimeSeriesBin &bin = series.bins[b];
            os << (b > 0 ? ",\n    " : "\n    ") << "{\"bin\": "
               << bin.index << ", \"t_s\": "
               << jsonNumber(static_cast<double>(bin.index) *
                             series.bin_width_s)
               << ", \"count\": " << bin.count << ", \"sum\": "
               << jsonNumber(bin.sum) << ", \"min\": "
               << jsonNumber(bin.min) << ", \"max\": "
               << jsonNumber(bin.max) << "}";
        }
        os << (series.bins.empty() ? "]}" : "\n  ]}");
    }
    os << (snapshot.series.empty() ? "]}\n" : "\n]}\n");
}

} // namespace kodan::telemetry
