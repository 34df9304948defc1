/**
 * @file
 * The src/net layer: CRC32, frame encode/decode (partial feeding, CRC
 * corruption, header violations), endpoint parsing, Channel round-trips
 * over a real pipe pair and a loopback socket, and the hello-token
 * handshake end to end against a live CampaignCoordinator — with the
 * in-test client acting as a minimal hand-rolled TCP worker, proving
 * the wire protocol independently of the production worker loop.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/json_parse.hh"
#include "net/socket.hh"
#include "net/transport.hh"
#include "system/campaign.hh"
#include "system/coordinator.hh"
#include "system/report.hh"

#include "malformed_numbers.hh"

using namespace mondrian;

namespace {

/** Block until one message arrives; false on EOF/desync. */
bool
awaitMsg(Channel &t, std::string &payload)
{
    for (;;) {
        const int st = t.next(payload);
        if (st > 0)
            return true;
        if (st < 0)
            return false;
        const Channel::Pump p = t.pump();
        if (p == Channel::Pump::kEof || p == Channel::Pump::kError)
            return false;
    }
}

/** @p v's string value; "" when absent or not a string. */
std::string
stringOf(const JsonValue *v)
{
    std::string s;
    readString(v, s);
    return s;
}

/** A connected loopback socket pair: {client, served}. */
std::pair<Socket, Socket>
loopbackPair()
{
    std::string error;
    Endpoint ep;
    EXPECT_TRUE(parseEndpoint("127.0.0.1:0", ep, error));
    Socket listener = Socket::listen(ep, error);
    EXPECT_TRUE(listener.valid()) << error;
    ep.port = listener.localPort();
    Socket client = Socket::connect(ep, error);
    EXPECT_TRUE(client.valid()) << error;
    Socket served = listener.accept(error);
    EXPECT_TRUE(served.valid()) << error;
    return {std::move(client), std::move(served)};
}

/** 2 systems x 2 ops at 2^8: four cheap jobs with a baseline. */
CampaignGrid
smallGrid()
{
    CampaignGrid grid;
    grid.systems = {SystemKind::kCpu, SystemKind::kMondrian};
    grid.scenarios = {degenerateScenario(OpKind::kScan),
                      degenerateScenario(OpKind::kJoin)};
    grid.log2Tuples = {8};
    grid.seeds = {42};
    return grid;
}

} // namespace

// ------------------------------------------------------------------- CRC32

TEST(Crc32, MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32/ISO-HDLC check value.
    const std::string data = "123456789";
    EXPECT_EQ(crc32(data.data(), data.size()), 0xCBF43926u);
    EXPECT_EQ(crc32("", 0), 0x00000000u);
}

// ------------------------------------------------------------------ frames

TEST(Frame, RoundTrips)
{
    const std::string payload = "{\"type\": \"hello\"}";
    std::string buf = encodeFrame(payload);
    std::string out;
    EXPECT_EQ(decodeFrame(buf, out), 1);
    EXPECT_EQ(out, payload);
    EXPECT_TRUE(buf.empty());
}

TEST(Frame, PartialFeedingNeedsMoreBytes)
{
    const std::string payload(1000, 'x');
    const std::string wire = encodeFrame(payload);
    std::string buf, out;
    // Feed one byte at a time: decode must keep answering 0 until the
    // final trailer byte lands (short reads are the TCP common case).
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        buf += wire[i];
        ASSERT_EQ(decodeFrame(buf, out), 0) << "at byte " << i;
    }
    buf += wire.back();
    EXPECT_EQ(decodeFrame(buf, out), 1);
    EXPECT_EQ(out, payload);
}

TEST(Frame, CrcMismatchIsDesync)
{
    const std::string payload = "{\"type\": \"result\", \"value\": 42}";
    std::string wire = encodeFrame(payload);
    // Flip one payload bit: the header CRC no longer matches.
    wire[wire.find('{') + 10] ^= 0x01;
    std::string out;
    EXPECT_EQ(decodeFrame(wire, out), -1);
}

TEST(Frame, HeaderViolationsAreDesync)
{
    std::string out;
    // Garbage length.
    std::string buf = "xyz deadbeef\n{}\n";
    EXPECT_EQ(decodeFrame(buf, out), -1);
    // Missing CRC field.
    buf = "2\n{}\n";
    EXPECT_EQ(decodeFrame(buf, out), -1);
    // Bad CRC width.
    buf = "2 abc\n{}\n";
    EXPECT_EQ(decodeFrame(buf, out), -1);
    // Missing trailing newline after the payload.
    buf = "2 " + std::string(8, '0') + "\n{}X";
    EXPECT_EQ(decodeFrame(buf, out), -1);
    // Nonsense length: a desync, not an allocation attempt.
    buf = "99999999999999 00000000\n";
    EXPECT_EQ(decodeFrame(buf, out), -1);
    // A header line that never terminates.
    buf = std::string(64, '1');
    EXPECT_EQ(decodeFrame(buf, out), -1);
    // Every malformed length before a good CRC and payload.
    const std::string wire = encodeFrame("{}");
    const std::string rest = wire.substr(wire.find(' '));
    buf = "2" + rest;
    ASSERT_EQ(decodeFrame(buf, out), 1);
    for (const std::string &len : malformedNumbers("2", false)) {
        buf = len + rest;
        EXPECT_EQ(decodeFrame(buf, out), -1) << "'" << len << "'";
    }
}

// --------------------------------------------------------------- endpoints

TEST(Endpoint, ParsesHostColonPort)
{
    Endpoint ep;
    std::string error;
    ASSERT_TRUE(parseEndpoint("127.0.0.1:8080", ep, error)) << error;
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 8080);
    EXPECT_EQ(ep.name(), "127.0.0.1:8080");
    ASSERT_TRUE(parseEndpoint("localhost:0", ep, error)) << error;
    EXPECT_EQ(ep.port, 0);
}

TEST(Endpoint, RejectsMalformedSpecs)
{
    Endpoint ep;
    std::string error;
    EXPECT_FALSE(parseEndpoint("no-port", ep, error));
    EXPECT_FALSE(parseEndpoint(":8080", ep, error));
    EXPECT_FALSE(parseEndpoint("host:", ep, error));
    EXPECT_FALSE(parseEndpoint("host:notaport", ep, error));
    EXPECT_FALSE(parseEndpoint("host:70000", ep, error));
    for (const std::string &port : malformedNumbers("80", false)) {
        const std::string spec = "host:" + port;
        EXPECT_FALSE(parseEndpoint(spec, ep, error)) << spec;
        EXPECT_NE(error.find("endpoint '" + spec + "'"), std::string::npos)
            << error;
    }
}

// ----------------------------------------------------------------- Channel

TEST(Channel, PipePairRoundTrip)
{
    // Two unidirectional pipes, exactly the coordinator/worker shape.
    int down[2], up[2];
    ASSERT_EQ(::pipe(down), 0);
    ASSERT_EQ(::pipe(up), 0);
    Channel coord(up[0], down[1]);
    Channel worker(down[0], up[1]);

    ASSERT_TRUE(coord.send("{\"type\": \"job\", \"index\": 3}"));
    std::string msg;
    ASSERT_TRUE(awaitMsg(worker, msg));
    EXPECT_EQ(msg, "{\"type\": \"job\", \"index\": 3}");

    ASSERT_TRUE(worker.send("{\"type\": \"heartbeat\"}"));
    ASSERT_TRUE(awaitMsg(coord, msg));
    EXPECT_EQ(msg, "{\"type\": \"heartbeat\"}");

    // Half-close: the worker sees EOF, its own send side still works.
    coord.shutdownSend();
    EXPECT_EQ(worker.pump(), Channel::Pump::kEof);
    ASSERT_TRUE(worker.send("{\"type\": \"heartbeat\"}"));
    ASSERT_TRUE(awaitMsg(coord, msg));
}

TEST(Channel, FlippedPayloadByteOnAPipeIsDesync)
{
    // Pipes carry the same CRC frames as sockets: a corrupted payload
    // must surface as a desync (-1), never as a message.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Channel receiver(fds[0], -1);
    std::string bad = encodeFrame("{\"type\": \"result\", \"index\": 0}");
    bad[bad.find('{') + 9] ^= 0x20;
    ASSERT_TRUE(writeAll(fds[1], bad.data(), bad.size()));
    ::close(fds[1]);
    std::string msg;
    ASSERT_EQ(receiver.pump(), Channel::Pump::kData);
    EXPECT_EQ(receiver.next(msg), -1);
}

TEST(Channel, LoopbackSocketRoundTrip)
{
    auto [client, served] = loopbackPair();
    ASSERT_TRUE(client.valid() && served.valid());
    const int client_fd = client.fd();
    Channel a(std::move(client));
    Channel b(std::move(served));

    // A payload far bigger than one MTU: must reassemble across reads.
    const std::string big(256 * 1024, 'm');
    ASSERT_TRUE(a.send(big));
    std::string msg;
    ASSERT_TRUE(awaitMsg(b, msg));
    EXPECT_EQ(msg, big);

    // And the reverse direction.
    ASSERT_TRUE(b.send("{\"type\": \"ok\"}"));
    ASSERT_TRUE(awaitMsg(a, msg));
    EXPECT_EQ(msg, "{\"type\": \"ok\"}");

    // A frame trickled one byte at a time (worst-case short reads).
    const std::string wire = encodeFrame("{\"type\": \"hello\"}");
    for (const char c : wire)
        ASSERT_TRUE(writeAll(client_fd, &c, 1));
    ASSERT_TRUE(awaitMsg(b, msg));
    EXPECT_EQ(msg, "{\"type\": \"hello\"}");

    // Half-close of a socket is shutdown(SHUT_WR): the peer reads EOF.
    a.shutdownSend();
    EXPECT_FALSE(awaitMsg(b, msg));
}

TEST(Channel, SendToAClosedSocketPeerFailsWithoutSigpipe)
{
    // SIGPIPE at its default action would kill the test process: a
    // socket send must report the dead peer as a failed write instead.
    auto *const old = ::signal(SIGPIPE, SIG_DFL);
    auto [client, served] = loopbackPair();
    ASSERT_TRUE(client.valid() && served.valid());
    Channel a(std::move(client));
    served.close();
    bool failed = false;
    for (int i = 0; i < 100 && !failed; ++i)
        failed = !a.send("{\"type\": \"heartbeat\"}");
    ::signal(SIGPIPE, old);
    EXPECT_TRUE(failed);
}

// ------------------------------------- end-to-end TCP handshake + campaign

TEST(TcpHandshake, TokenRejectionThenHandRolledWorkerCompletesCampaign)
{
    const CampaignGrid grid = smallGrid();
    CampaignRunner reference(grid);
    const std::string expected = campaignReportJson(reference.run(1));

    CoordinatorConfig config;
    config.workers = 0; // remote-only
    config.listenEndpoint = "127.0.0.1:0";
    config.helloToken = "s3cret";
    CampaignCoordinator coordinator(grid, config);
    std::atomic<bool> stop{false};
    coordinator.setAbort(&stop);
    std::string error;
    ASSERT_TRUE(coordinator.listen(error)) << error;
    const std::uint16_t port = coordinator.listenPort();
    ASSERT_NE(port, 0);

    CampaignReport report;
    std::thread coord_thread([&] { report = coordinator.run(); });

    Endpoint ep;
    ASSERT_TRUE(parseEndpoint("127.0.0.1:" + std::to_string(port), ep,
                              error));

    // 1) A client with the wrong token: explicit reject, then EOF.
    {
        Socket s = Socket::connect(ep, error);
        ASSERT_TRUE(s.valid()) << error;
        Channel t(std::move(s));
        ASSERT_TRUE(t.send("{\"type\": \"hello\", \"pid\": 1, "
                           "\"token\": \"wrong\"}"));
        std::string msg;
        ASSERT_TRUE(awaitMsg(t, msg));
        JsonValue reply;
        ASSERT_TRUE(parseJson(msg, reply, error)) << error;
        ASSERT_TRUE(reply.find("type"));
        EXPECT_EQ(stringOf(reply.find("type")), "reject");
        EXPECT_FALSE(awaitMsg(t, msg)); // coordinator closed the channel
    }

    // A hand-rolled worker with the right token: receives the spec over
    // the wire and expands it, then answers with @p reply(job message).
    // @p exited is set when the coordinator sends `exit`, and stays unset
    // when it closes the channel instead (the worker was dropped).
    auto serve = [&](auto reply, bool &exited) {
        exited = false;
        Socket s = Socket::connect(ep, error);
        ASSERT_TRUE(s.valid()) << error;
        Channel t(std::move(s));
        ASSERT_TRUE(t.send("{\"type\": \"hello\", \"pid\": 2, "
                           "\"token\": \"s3cret\"}"));
        std::string msg;
        ASSERT_TRUE(awaitMsg(t, msg));
        JsonValue spec_msg;
        ASSERT_TRUE(parseJson(msg, spec_msg, error)) << error;
        ASSERT_TRUE(spec_msg.find("type"));
        ASSERT_EQ(stringOf(spec_msg.find("type")), "spec");
        ASSERT_TRUE(spec_msg.find("schema"));
        ASSERT_EQ(stringOf(spec_msg.find("schema")), kCampaignSpecSchema);
        ASSERT_TRUE(spec_msg.find("grid"));

        CampaignGrid wire_grid;
        ASSERT_TRUE(readCampaignGrid(*spec_msg.find("grid"), wire_grid,
                                     error)) << error;
        const std::vector<CampaignJob> jobs = expandGrid(wire_grid);
        ASSERT_EQ(jobs.size(), 4u);
        ASSERT_TRUE(t.send("{\"type\": \"ready\", \"jobs\": " +
                           std::to_string(jobs.size()) + "}"));

        while (awaitMsg(t, msg)) {
            JsonValue job_msg;
            ASSERT_TRUE(parseJson(msg, job_msg, error)) << error;
            const JsonValue *type = job_msg.find("type");
            ASSERT_TRUE(type);
            if (stringOf(type) == "exit") {
                exited = true;
                return;
            }
            ASSERT_EQ(stringOf(type), "job");
            std::size_t index = 0;
            ASSERT_TRUE(readUint(job_msg.find("index"), index));
            ASSERT_LT(index, jobs.size());
            ASSERT_TRUE(t.send(reply(jobs, index)));
        }
    };
    auto resultFrame = [](const std::string &index,
                          const RunResult &result) {
        JsonWriter w;
        w.setPreciseDoubles(true);
        w.beginObject();
        w.member("type", "result");
        w.key("index").rawValue(index);
        w.key("result");
        writeRunResult(w, result);
        w.endObject();
        return JsonWriter::compact(w.str());
    };

    // 2) A worker that writes the job's index as a string: the coordinator
    // must not read "0" as job 0. It drops the worker after that one
    // frame (EOF here, no second job) and the job runs again.
    std::size_t answered = 0;
    bool exited = false;
    serve([&](const std::vector<CampaignJob> &jobs, std::size_t index) {
        ++answered;
        return resultFrame("\"" + std::to_string(index) + "\"",
                           executeCampaignJob(jobs[index]));
    }, exited);
    EXPECT_EQ(answered, 1u);
    EXPECT_FALSE(exited);

    // 3) A worker that serves every job with exact-double results: the
    // protocol proven without the production worker loop. Its first
    // result is another job's, which fails that attempt (a result must
    // have its job's system and op) without dropping the worker.
    bool first = true;
    serve([&](const std::vector<CampaignJob> &jobs, std::size_t index) {
        const std::size_t answered = first ? index ^ 1 : index;
        first = false;
        return resultFrame(std::to_string(index),
                           executeCampaignJob(jobs[answered]));
    }, exited);
    EXPECT_FALSE(first);
    EXPECT_TRUE(exited); // kept after the failed attempt, then told to exit

    // A failure above may leave jobs that no worker will serve.
    if (::testing::Test::HasFailure())
        stop = true;
    coord_thread.join();
    EXPECT_TRUE(report.failedRuns.empty());
    EXPECT_EQ(campaignReportJson(report), expected);
}
