/**
 * @file
 * Workload `serve-churn`: open-loop NDJSON traffic on one pipelined
 * connection to an in-process PlacementServer on a 64-rack cluster. The
 * server writes its WAL to a file and snapshots every 1000 mutations;
 * after the load the benchmark stops it, recovers a second engine from
 * that WAL, and requires the two state digests to match.
 *
 * The traffic is place/depart requests whose departures track the
 * placements, so the running population stays near 64 jobs, plus 2%
 * what-if queries and 1% `stats`. This is the daemon's write path
 * (protocol, admission, validate, WAL append, apply, incremental
 * water-filling) with almost no what-if clones.
 *
 * The client re-arms TCP_QUICKACK after every read. The server sends
 * with Nagle's algorithm on, so without immediate ACKs each pipelined
 * response would wait for the ACK that rides on the client's next
 * request, and latency would be one inter-arrival time whatever the
 * daemon did. One short phase runs without quick ACKs so the run record
 * shows that hold (nagle_p50_ms).
 *
 * Threads: the generator sends and receives from the main thread. In
 * the open-loop phases it spins rather than sleeps, because a sleeping
 * thread on a 4-vCPU VM wakes ~4 ms late at p99. The server runs its
 * service thread plus a 2-thread query pool, so the process uses 4
 * threads in total.
 *
 * End-to-end: p50_ms = client-observed latency of the place requests at
 * the workload's fixed offered rate, timed from when each request was
 * due. Places and departs are each about half of the stream, and a
 * depart costs microseconds where a place costs a water-filling update,
 * so the median over all requests falls in the gap between the two and
 * jumps with the mix; the run record keeps it as req_p50_ms;
 * throughput_per_s = the saturation throughput with 64 requests kept
 * outstanding; setup_s = starting the server (engine, WAL, pool,
 * socket), connecting, and the warm-up to the steady population.
 */

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench.h"
#include "common/check.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/placement_server.h"
#include "serve/protocol.h"
#include "serve/wal.h"
#include "workload/models.h"

namespace netbench {
namespace {

using namespace netpack;

constexpr int kPopulation = 64;
/** What-if candidates per query: one per query-pool lane (2 workers
 * plus the service thread, which helps). */
constexpr int kCandidates = 3;
/**
 * The fixed offered rate (req/s), about a quarter of the saturation
 * throughput on a 4-vCPU VM.
 */
constexpr double kFixedRate = 800.0;
/** Requests kept outstanding while measuring saturation throughput. */
constexpr std::size_t kSaturationWindow = 64;
constexpr std::uint64_t kSnapshotEvery = 1000;
constexpr int kQueryThreads = 2;
/** No cap on outstanding requests: a plain open loop. */
constexpr std::size_t kUnlimited = ~std::size_t{0};

constexpr const char *kName = "serve-churn";

serve::EngineConfig
engineConfig()
{
    serve::EngineConfig config;
    config.cluster.numRacks = 64;
    config.cluster.serversPerRack = 16;
    config.cluster.gpusPerServer = 4;
    config.cluster.serverLinkGbps = 100.0;
    config.cluster.oversubscription = 1.0;
    config.cluster.torPatGbps = 1000.0;
    config.cluster.rtt = 50e-6;
    config.placer = "NetPack";
    config.seed = 1;
    return config;
}

/** splitmix64: the request stream's own generator. */
class StreamRng
{
  public:
    explicit StreamRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t operator()()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return (*this)() % n; }

  private:
    std::uint64_t state_;
};

/** One request line and what the generator needs to account for it. */
struct Outgoing
{
    std::int64_t id = 0;
    serve::Op op = serve::Op::Stats;
    std::string line;
    /** Place: the job placed; depart: the job released. */
    int job = 0;
};

/**
 * The request stream: a pure function of the seed, given that every
 * mutation succeeds (reconcile() repairs the population when one was
 * refused, which fails the run anyway).
 */
class RequestStream
{
  public:
    explicit RequestStream(std::uint64_t seed) : rng_(subSeed(seed, 3))
    {
        for (const ModelProfile &model : ModelZoo::all())
            models_.push_back(model.name);
    }

    /** A place request (warm-up fill). */
    Outgoing place()
    {
        Outgoing out = start(serve::Op::Place);
        out.job = nextJob_++;
        out.line += ",\"jobs\":[" + jobJson(out.job) + "]}";
        running_.push_back(out.job);
        return out;
    }

    /** The next request of the workload's mix. */
    Outgoing next()
    {
        const int population = static_cast<int>(running_.size());
        // A 3% read share keeps the what-if and digest layers in the
        // traced run without making clones a real share of the work.
        const std::uint64_t slot = rng_.below(100);
        if (slot == 0)
            return stats();
        if (slot <= 2)
            return query();
        if (population < kPopulation - 16)
            return place();
        if (population > kPopulation + 16)
            return depart();
        return rng_.below(2) == 0 ? place() : depart();
    }

    /** Account for a refused mutation so later requests stay valid. */
    void reconcile(const Outgoing &req)
    {
        if (req.op == serve::Op::Place) {
            running_.erase(std::remove(running_.begin(), running_.end(), req.job),
                           running_.end());
        } else if (req.op == serve::Op::Depart) {
            running_.push_back(req.job);
        }
    }

  private:
    Outgoing start(serve::Op op)
    {
        Outgoing out;
        out.id = nextId_++;
        out.op = op;
        out.line = std::string("{\"op\":\"") + serve::opName(op) +
                   "\",\"id\":" + std::to_string(out.id);
        return out;
    }

    std::string jobJson(int id)
    {
        const std::string &model = models_[rng_.below(models_.size())];
        const int gpus = 1 + static_cast<int>(rng_.below(8));
        return "{\"id\":" + std::to_string(id) + ",\"model\":\"" + model +
               "\",\"gpus\":" + std::to_string(gpus) +
               ",\"submit\":0,\"iters\":1000,\"value\":1}";
    }

    Outgoing depart()
    {
        Outgoing out = start(serve::Op::Depart);
        const std::size_t pick = rng_.below(running_.size());
        out.job = running_[pick];
        running_[pick] = running_.back();
        running_.pop_back();
        out.line += ",\"jobs\":[" + std::to_string(out.job) + "]}";
        return out;
    }

    Outgoing query()
    {
        Outgoing out = start(serve::Op::Query);
        out.line += ",\"jobs\":[";
        for (int c = 0; c < kCandidates; ++c) {
            if (c > 0)
                out.line += ',';
            out.line += jobJson(nextCandidate_++);
        }
        out.line += "]}";
        return out;
    }

    Outgoing stats()
    {
        Outgoing out = start(serve::Op::Stats);
        out.line += "}";
        return out;
    }

    StreamRng rng_;
    std::vector<std::string> models_;
    std::vector<int> running_;
    std::int64_t nextId_ = 1;
    int nextJob_ = 1;
    int nextCandidate_ = 100000000;
};

/** Client side of one loopback connection, nonblocking after connect. */
class Connection
{
  public:
    explicit Connection(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        NETPACK_REQUIRE(fd_ >= 0, "netbench: socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        int rc;
        do {
            rc = ::connect(fd_, reinterpret_cast<sockaddr *>(&addr), sizeof addr);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) {
            ::close(fd_);
            throw ConfigError("netbench: cannot connect to the server");
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
        armQuickAck();
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Write as much of @p out as the socket takes; erase what was sent. */
    void flush(std::string &out)
    {
        while (!out.empty()) {
            const ssize_t n =
                ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n > 0) {
                out.erase(0, static_cast<std::size_t>(n));
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            } else {
                throw ConfigError("netbench: the server closed the connection");
            }
        }
    }

    /** Block until the socket is readable, for at most 10 ms. */
    void waitReadable()
    {
        pollfd pfd{};
        pfd.fd = fd_;
        pfd.events = POLLIN;
        ::poll(&pfd, 1, 10);
    }

    /**
     * ACK every response at once (the default) or let the kernel delay
     * ACKs until they can ride on the next request.
     */
    void setQuickAck(bool on)
    {
        quickAck_ = on;
        armQuickAck();
    }

    /** Append whatever is readable to @p in. */
    void receive(std::string &in)
    {
        char buf[65536];
        while (true) {
            const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
            if (n > 0) {
                in.append(buf, static_cast<std::size_t>(n));
                // The kernel drops quick-ACK mode after a while; re-arm it
                // after every read.
                armQuickAck();
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            } else {
                throw ConfigError("netbench: the server closed the connection");
            }
        }
    }

  private:
    void armQuickAck()
    {
        const int flag = quickAck_ ? 1 : 0;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &flag, sizeof flag);
    }

    int fd_ = -1;
    bool quickAck_ = true;
};

/** Client-observed outcome of one open-loop phase. */
struct Phase
{
    /** Latency from due time to response, ms. */
    Samples allMs, placeMs, queryMs;
    /** How late the generator sent each request, ms. */
    Samples lagMs;
    std::int64_t sent = 0;
    std::int64_t errors = 0;
    std::int64_t rejected = 0;
    std::int64_t unanswered = 0;
    double wallS = 0.0;

    std::int64_t failures() const { return errors + rejected + unanswered; }
    bool clean() const { return failures() == 0; }
};

/**
 * Send @p reqs open-loop at @p rate on @p conn, never more than
 * @p window outstanding, and wait for every response (at most 10 s
 * after the last one was due). Responses are matched to requests by
 * id; a refused mutation is reconciled into @p stream. The generator
 * spins unless @p sleepWhenFull: a phase that measures throughput, not
 * latency, sleeps while the window is full and so leaves the core to
 * the server's threads.
 */
Phase
runOpenLoop(Connection &conn, RequestStream &stream,
            const std::vector<Outgoing> &reqs, double rate,
            std::size_t window = kUnlimited, bool sleepWhenFull = false)
{
    constexpr double kDrainS = 10.0;
    struct Pending
    {
        Clock::time_point due;
        std::size_t index;
    };
    Phase phase;
    std::map<std::int64_t, Pending> pending;
    std::string out, in;
    const auto start = Clock::now() + std::chrono::microseconds(200);
    const auto dueAt = [&](std::size_t k) {
        return start + std::chrono::nanoseconds(
                           static_cast<std::int64_t>(1e9 * static_cast<double>(k) / rate));
    };
    const auto deadline =
        dueAt(reqs.size()) +
        std::chrono::microseconds(static_cast<std::int64_t>(kDrainS * 1e6));
    std::size_t next = 0;

    while (next < reqs.size() || !pending.empty()) {
        auto now = Clock::now();
        if (now > deadline)
            break;
        while (next < reqs.size() && dueAt(next) <= now && pending.size() < window) {
            out += reqs[next].line;
            out += '\n';
            pending[reqs[next].id] = Pending{dueAt(next), next};
            phase.lagMs.add(microsBetween(dueAt(next), now) * 1e-3);
            ++next;
        }
        conn.flush(out);
        conn.receive(in);
        now = Clock::now();
        std::size_t begin = 0;
        for (std::size_t eol; (eol = in.find('\n', begin)) != std::string::npos;
             begin = eol + 1) {
            const std::string_view line(in.data() + begin, eol - begin);
            // Responses begin {"id":N,"ok":...}; the id is the match key.
            constexpr std::string_view kIdKey = "{\"id\":";
            const auto it = line.substr(0, kIdKey.size()) == kIdKey
                                ? pending.find(std::strtoll(line.data() + kIdKey.size(),
                                                            nullptr, 10))
                                : pending.end();
            if (it == pending.end()) {
                ++phase.errors; // unmatched or malformed response
                continue;
            }
            const Outgoing &req = reqs[it->second.index];
            const double ms = microsBetween(it->second.due, now) * 1e-3;
            pending.erase(it);
            const bool ok = line.find("\"ok\":true") != std::string_view::npos &&
                            line.find("\"deferred\"") == std::string_view::npos;
            if (!ok) {
                if (line.find("\"rejected\":true") != std::string_view::npos)
                    ++phase.rejected;
                else
                    ++phase.errors;
                stream.reconcile(req);
                continue;
            }
            phase.allMs.add(ms);
            if (req.op == serve::Op::Place)
                phase.placeMs.add(ms);
            else if (req.op == serve::Op::Query)
                phase.queryMs.add(ms);
        }
        in.erase(0, begin);
        if (sleepWhenFull && out.empty() && !pending.empty() &&
            (next == reqs.size() || pending.size() >= window))
            conn.waitReadable();
    }
    phase.sent = static_cast<std::int64_t>(next);
    phase.unanswered = static_cast<std::int64_t>(reqs.size() - next + pending.size());
    for (const auto &[id, p] : pending)
        stream.reconcile(reqs[p.index]);
    phase.wallS = secondsSince(start);
    return phase;
}

std::vector<Outgoing>
generate(RequestStream &stream, std::size_t n)
{
    std::vector<Outgoing> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        reqs.push_back(stream.next());
    return reqs;
}

/** A running server with its WAL file and one client connection. */
struct Daemon
{
    explicit Daemon(const std::string &walPath)
    {
        serve::ServerConfig config;
        config.engine = engineConfig();
        config.walPath = walPath;
        config.snapshotEvery = kSnapshotEvery;
        config.queryThreads = kQueryThreads;
        server = std::make_unique<serve::PlacementServer>(config);
        conn = std::make_unique<Connection>(server->port());
    }

    /** Stop the server; the engine is readable afterwards. */
    void stop()
    {
        conn.reset();
        server->stop();
        server->join();
    }

    std::unique_ptr<serve::PlacementServer> server;
    std::unique_ptr<Connection> conn;
};

/** Where this run keeps its WAL files; removed on exit. */
class WalDir
{
  public:
    explicit WalDir(const Options &opts)
        : dir_(std::filesystem::path(opts.workdir) /
               ("netbench-" + opts.workload + "-" + std::to_string(::getpid())))
    {
        std::filesystem::create_directories(dir_);
    }
    ~WalDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(dir_, ignored);
    }
    WalDir(const WalDir &) = delete;
    WalDir &operator=(const WalDir &) = delete;

    std::string path(const std::string &name) const { return (dir_ / name).string(); }

  private:
    std::filesystem::path dir_;
};

/** Count a phase's requests and fail the run if any was lost. */
void
account(const std::string &what, const Phase &phase, std::size_t requests,
        Result &result)
{
    result.attempted += static_cast<std::int64_t>(requests);
    result.failed += phase.failures();
    if (!phase.clean())
        result.fail(what + ": " + std::to_string(phase.failures()) + " of " +
                    std::to_string(requests) + " requests failed");
}

/** Bring the daemon to the steady population, one request at a time;
 * returns the requests sent. */
std::vector<Outgoing>
warmUp(Daemon &daemon, RequestStream &stream, Result &result)
{
    std::vector<Outgoing> fill;
    for (int i = 0; i < kPopulation; ++i)
        fill.push_back(stream.place());
    account("warm-up", runOpenLoop(*daemon.conn, stream, fill, 1e9, 1),
            fill.size(), result);
    return fill;
}

/** Recovery timings of one WAL; the digest must match the live one. */
struct Recovery
{
    double loadS = 0.0;
    double replayS = 0.0;
    double totalS = 0.0;
};

Recovery
recoverAndCheck(const std::string &walPath, const std::string &liveDigest,
                std::uint64_t liveSeq, Result &result)
{
    std::vector<double> load, replay, total;
    for (int i = 0; i < 3; ++i) {
        const auto t0 = Clock::now();
        const serve::WalLoad wal = serve::loadWal(walPath);
        const auto t1 = Clock::now();
        std::uint64_t seq = 0;
        const std::unique_ptr<serve::PlacementEngine> engine =
            serve::recoverEngine(wal, seq);
        const auto t2 = Clock::now();
        load.push_back(microsBetween(t0, t1) * 1e-6);
        replay.push_back(microsBetween(t1, t2) * 1e-6);
        total.push_back(microsBetween(t0, t2) * 1e-6);
        if (i == 0 && (wal.torn || seq != liveSeq ||
                       engine->stateDigest(seq) != liveDigest))
            result.fail("recovered engine differs from the live one (seq " +
                        std::to_string(seq) + " vs " + std::to_string(liveSeq) +
                        ")");
    }
    return Recovery{median(load), median(replay), median(total)};
}


/**
 * The daemon's saturation throughput: requests completed per second
 * while the connection keeps kSaturationWindow requests outstanding,
 * so the service thread never waits for work. The median over
 * @p windows windows of 2 x the fixed rate's requests each, because the
 * machine's speed drifts by +-20% from one second to the next. The
 * request count is fixed, not the time: the daemon's memory grows with
 * the requests it has served, so peak RSS stays comparable.
 */
double
saturationRate(Daemon &daemon, RequestStream &stream, int windows, Result &result)
{
    std::vector<double> rates;
    double spent = 0.0;
    while (static_cast<int>(rates.size()) < windows) {
        const auto reqs = generate(stream, static_cast<std::size_t>(2.0 * kFixedRate));
        const Phase phase =
            runOpenLoop(*daemon.conn, stream, reqs, 1e9, kSaturationWindow, true);
        account(kName, phase, reqs.size(), result);
        spent += phase.wallS;
        rates.push_back(static_cast<double>(reqs.size()) / phase.wallS);
    }
    result.record["saturation_windows"] = static_cast<double>(rates.size());
    result.record["saturation_s"] = spent;
    return median(rates);
}

/** Counters and latency histograms recorded between two snapshots. */
obs::MetricsSnapshot
since(const obs::MetricsSnapshot &before, obs::MetricsSnapshot after)
{
    for (auto &[name, value] : after.counters) {
        if (const auto it = before.counters.find(name); it != before.counters.end())
            value -= it->second;
    }
    for (auto &[name, hist] : after.logHistograms) {
        const auto it = before.logHistograms.find(name);
        if (it == before.logHistograms.end())
            continue;
        for (std::size_t i = 0; i < hist.counts.size() && i < it->second.counts.size();
             ++i)
            hist.counts[i] -= it->second.counts[i];
        hist.total -= it->second.total;
        hist.sum -= it->second.sum;
    }
    return after;
}

/** Per-stage timings (µs) of the direct engine replay. */
struct Stages
{
    Samples parse, validate, walAppend, snapshot, applyPlace, applyDepart, whatIf,
        digest, serialize;
    /** whatIf per candidate (derived from whatIf). */
    Samples candidate;
};

/**
 * Replay the request lines the daemon served directly against a
 * PlacementEngine and WalWriter, in the order the daemon's dispatch
 * runs them, timing each stage. The final state must equal the
 * daemon's.
 */
void
replayDirect(const std::vector<Outgoing> &log, const std::string &walPath,
             const std::string &liveDigest, Result &result)
{
    serve::PlacementEngine engine(engineConfig());
    serve::WalHeader header;
    header.cluster = engine.config().cluster;
    header.placer = engine.config().placer;
    header.seed = engine.config().seed;
    std::uint64_t mutations = 0;
    std::uint64_t seq = 0;
    std::size_t responseBytes = 0;
    Stages st;
    exec::ThreadPool pool(kQueryThreads);
    {
        serve::WalWriter wal(walPath, header);
        std::uint64_t sinceSnapshot = 0;
        for (const Outgoing &out : log) {
            auto t = Clock::now();
            const auto lap = [&t](Samples &stage) {
                const auto now = Clock::now();
                stage.add(microsBetween(t, now));
                t = now;
                return stage.values().back();
            };
            const serve::Request request = serve::parseRequest(out.line);
            lap(st.parse);
            serve::Response response;
            response.id = request.id;
            response.ok = true;
            switch (request.op) {
              case serve::Op::Place: {
                engine.validatePlace(request.jobs);
                lap(st.validate);
                wal.appendPlace(++seq, request.jobs);
                lap(st.walAppend);
                BatchResult placed = engine.applyPlace(request.jobs);
                lap(st.applyPlace);
                response.placed = std::move(placed.placed);
                response.deferred = std::move(placed.deferred);
                ++mutations;
                ++sinceSnapshot;
                break;
              }
              case serve::Op::Depart:
                engine.validateDepart(request.departs);
                lap(st.validate);
                wal.appendDepart(++seq, request.departs);
                lap(st.walAppend);
                engine.applyDepart(request.departs);
                lap(st.applyDepart);
                ++mutations;
                ++sinceSnapshot;
                break;
              case serve::Op::Query:
                response.queryResults = engine.whatIf(request.jobs, &pool);
                st.candidate.add(lap(st.whatIf) /
                                 static_cast<double>(request.jobs.size()));
                break;
              case serve::Op::Stats:
                response.hasStats = true;
                response.stats.seq = seq;
                response.stats.runningJobs = engine.runningJobs();
                response.stats.digest = engine.stateDigest(seq);
                lap(st.digest);
                break;
              default:
                break;
            }
            if (sinceSnapshot >= kSnapshotEvery) {
                wal.appendSnapshot(engine.snapshot(seq));
                sinceSnapshot = 0;
                lap(st.snapshot);
            }
            responseBytes += serve::serializeResponse(response).size();
            lap(st.serialize);
        }
    }
    if (engine.stateDigest(seq) != liveDigest)
        result.fail("direct replay ended in a different state than the daemon");

    // Context clones, as every what-if candidate pays them.
    Samples exportUs, importUs;
    for (int i = 0; i < 51; ++i) {
        const auto t0 = Clock::now();
        const PlacementContext::State state = engine.context().exportState();
        const auto t1 = Clock::now();
        PlacementContext clone(engine.topology());
        clone.importState(state);
        exportUs.add(microsBetween(t0, t1));
        importUs.add(microsBetween(t1, Clock::now()));
    }

    // The same what-if queries with no pool and with the pool.
    double serialUs = 0.0, pooledUs = 0.0;
    int queries = 0;
    for (const Outgoing &out : log) {
        if (out.op != serve::Op::Query || queries == 60)
            continue;
        const serve::Request request = serve::parseRequest(out.line);
        const auto t0 = Clock::now();
        engine.whatIf(request.jobs, nullptr);
        const auto t1 = Clock::now();
        engine.whatIf(request.jobs, &pool);
        serialUs += microsBetween(t0, t1);
        pooledUs += microsBetween(t1, Clock::now());
        ++queries;
    }

    result.set("protocol.parse_us", st.parse.quantile(0.5), "us");
    result.set("protocol.serialize_us", st.serialize.quantile(0.5), "us");
    result.set("wal.append_p50_us", st.walAppend.quantile(0.5), "us");
    result.set("wal.append_p99_us", st.walAppend.p99(), "us");
    result.set("wal.bytes_per_mutation",
               static_cast<double>(std::filesystem::file_size(walPath)) /
                   static_cast<double>(std::max<std::uint64_t>(1, mutations)),
               "B");
    result.set("engine.validate_us", st.validate.quantile(0.5), "us");
    result.set("engine.apply_place_us", st.applyPlace.quantile(0.5), "us");
    result.set("engine.apply_depart_us", st.applyDepart.quantile(0.5), "us");
    result.set("engine.whatif_query_us", st.whatIf.quantile(0.5), "us");
    result.set("engine.whatif_candidate_us", st.candidate.quantile(0.5), "us");
    result.set("engine.digest_us", st.digest.quantile(0.5), "us");
    result.set("context.export_us", exportUs.quantile(0.5), "us");
    result.set("context.import_us", importUs.quantile(0.5), "us");
    result.set("exec.whatif_parallel_gain", pooledUs > 0.0 ? serialUs / pooledUs : 0.0,
               "ratio");
    result.record["replay_requests"] = static_cast<double>(log.size());
    result.record["replay_mutations"] = static_cast<double>(mutations);
    result.record["replay_wal_appends"] = static_cast<double>(st.walAppend.count());
    result.record["replay_queries"] = static_cast<double>(st.whatIf.count());
    result.record["replay_stats"] = static_cast<double>(st.digest.count());
    result.record["replay_response_bytes"] = static_cast<double>(responseBytes);
    result.record["parallel_gain_queries"] = queries;
}

/**
 * Traced run: two daemons take the identical request sequence at the
 * fixed rate, the first with obs metrics off and the second with them
 * on; then the second's WAL is recovered and the whole sequence is
 * replayed directly against the engine to time each stage.
 */
void
runTraced(const Options &opts, const WalDir &dir, Result &result)
{
    const auto n = static_cast<std::size_t>(kFixedRate * 0.3 * opts.seconds);
    const std::string walPath = dir.path("traced.wal");
    std::vector<Outgoing> log;
    Phase plain, traced;
    std::string liveDigest;
    std::uint64_t liveSeq = 0;
    obs::MetricsSnapshot before, after;
    for (const bool on : {false, true}) {
        // Set while no server thread runs: the flag is read unsynchronized.
        obs::setMetricsEnabled(on);
        obs::Registry::instance().reset();
        Daemon daemon(on ? walPath : dir.path("plain.wal"));
        RequestStream stream(opts.seed);
        std::vector<Outgoing> sent = warmUp(daemon, stream, result);
        before = obs::snapshot();
        const std::vector<Outgoing> reqs = generate(stream, n);
        Phase phase = runOpenLoop(*daemon.conn, stream, reqs, kFixedRate);
        account(kName, phase, reqs.size(), result);
        daemon.stop();
        if (!on) {
            plain = std::move(phase);
            continue;
        }
        after = obs::snapshot();
        traced = std::move(phase);
        serve::PlacementServer &server = *daemon.server;
        liveSeq = server.seq();
        liveDigest = server.engine().stateDigest(liveSeq);
        log = std::move(sent);
        log.insert(log.end(), reqs.begin(), reqs.end());
    }
    obs::setMetricsEnabled(false);

    const obs::MetricsSnapshot window = since(before, after);
    fillObsMetrics(window, result);
    double dispatchUs = 0.0;
    if (const auto it = window.logHistograms.find("serve.request_us");
        it != window.logHistograms.end() && it->second.total > 0)
        dispatchUs = it->second.sum / static_cast<double>(it->second.total);
    result.set("server.dispatch_us", dispatchUs, "us");
    result.set("server.outside_us", traced.allMs.mean() * 1e3 - dispatchUs, "us");
    result.set("server.req_p99_ms", traced.allMs.p99(), "ms");
    result.set("server.place_p99_ms", traced.placeMs.p99(), "ms");
    result.set("server.query_p99_ms", traced.queryMs.p99(), "ms");
    result.set("error_ratio",
               static_cast<double>(plain.failures() + traced.failures()) /
                   static_cast<double>(2 * n),
               "ratio");
    result.set("gen.lag_p99_ms", traced.lagMs.p99(), "ms");
    // Medians: one stall of the machine moves a mean by more than the
    // tracing does.
    result.set("trace.overhead_ratio",
               traced.allMs.quantile(0.5) / plain.allMs.quantile(0.5), "ratio");

    const Recovery rec = recoverAndCheck(walPath, liveDigest, liveSeq, result);
    result.set("wal.load_s", rec.loadS, "s");
    result.set("engine.replay_s", rec.replayS, "s");
    result.set("engine.recover_s", rec.totalS, "s");

    replayDirect(log, dir.path("replay.wal"), liveDigest, result);
    measurePlacerMake(result);
    result.record["fixed_rate"] = kFixedRate;
    result.record["traced_samples"] = static_cast<double>(traced.allMs.count());
    result.record["untraced_samples"] = static_cast<double>(plain.allMs.count());
}

/** Equal seeds must give byte-identical streams, different seeds not. */
void
selfTest(const Options &opts, Result &result)
{
    const auto digest = [&](std::uint64_t seed) {
        RequestStream s(seed);
        std::uint64_t hash = fnv1a("");
        for (int i = 0; i < 4000; ++i)
            hash = fnv1a((i < kPopulation ? s.place() : s.next()).line, hash);
        return hash;
    };
    if (digest(opts.seed) != digest(opts.seed) ||
        digest(opts.seed) == digest(opts.seed + 1))
        result.fail(std::string(kName) + ": request stream is not a function of the seed");
}

} // namespace

void
runServeChurn(const Options &opts, Result &result)
{
    selfTest(opts, result);
    const WalDir dir(opts);
    if (opts.trace) {
        runTraced(opts, dir, result);
        return;
    }

    // Set-up is everything before the first timed request: starting the
    // server, connecting, and the warm-up to the steady population.
    std::vector<double> setups;
    for (int i = 0; i < 9; ++i) {
        const auto t0 = Clock::now();
        Daemon probe(dir.path("setup-" + std::to_string(i) + ".wal"));
        RequestStream fill(opts.seed);
        warmUp(probe, fill, result);
        setups.push_back(secondsSince(t0));
        probe.stop();
    }
    result.set("setup_s", median(setups), "s");

    const std::string walPath = dir.path("serve.wal");
    Daemon daemon(walPath);
    RequestStream stream(opts.seed);
    warmUp(daemon, stream, result);
    const std::vector<Outgoing> reqs =
        generate(stream, static_cast<std::size_t>(kFixedRate * 0.35 * opts.seconds));
    const Phase fixed = runOpenLoop(*daemon.conn, stream, reqs, kFixedRate);
    account(kName, fixed, reqs.size(), result);
    result.set("p50_ms", fixed.placeMs.quantile(0.5), "ms");

    // Two seconds of the same traffic with delayed ACKs: the Nagle hold
    // on the server's pipelined responses, for the run record only.
    daemon.conn->setQuickAck(false);
    const std::vector<Outgoing> nagleReqs =
        generate(stream, static_cast<std::size_t>(2.0 * kFixedRate));
    const Phase nagle = runOpenLoop(*daemon.conn, stream, nagleReqs, kFixedRate);
    account(kName, nagle, nagleReqs.size(), result);
    daemon.conn->setQuickAck(true);

    result.set("throughput_per_s",
               saturationRate(daemon, stream,
                              std::max(3, static_cast<int>(opts.seconds / 2.0)),
                              result),
               "1/s");
    result.record["fixed_rate"] = kFixedRate;
    result.record["fixed_samples"] = static_cast<double>(fixed.allMs.count());
    result.record["place_samples"] = static_cast<double>(fixed.placeMs.count());
    result.record["req_p50_ms"] = fixed.allMs.quantile(0.5);
    result.record["req_p99_ms"] = fixed.allMs.p99();
    result.record["gen_lag_p99_ms"] = fixed.lagMs.p99();
    result.record["place_p99_ms"] = fixed.placeMs.p99();
    result.record["query_p99_ms"] = fixed.queryMs.p99();
    result.record["nagle_p50_ms"] = nagle.allMs.quantile(0.5);
    result.record["setup_samples"] = static_cast<double>(setups.size());

    daemon.stop();
    serve::PlacementServer &server = *daemon.server;
    const Recovery rec = recoverAndCheck(
        walPath, server.engine().stateDigest(server.seq()), server.seq(), result);
    result.record["recover_s"] = rec.totalS;
}

} // namespace netbench
