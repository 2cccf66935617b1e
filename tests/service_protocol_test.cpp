// Protocol fuzz/negative tests of the campaign service (src/service).
//
// Every malformed input -- broken framing, truncated bodies,
// duplicate-key JSON, oversized specs, slow-loris partial writes -- must
// come back as a line-numbered E32x diagnostic response; none may crash,
// hang, or leak past a limit.  The CI ASan+UBSan job runs this binary, so
// "never crash" here means "never touch bad memory" there.
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dram/technology.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "test_dirs.hpp"
#include "util/json.hpp"
#include "verify/diagnostic.hpp"

namespace dramstress {
namespace {

namespace fs = std::filesystem;
using service::ProtocolLimits;
using service::Request;
using service::RequestParser;
using service::Response;
using verify::Code;

/// First diagnostic code of a parser, as text ("E320").
std::string first_code(const RequestParser& p) {
  EXPECT_FALSE(p.report().diagnostics().empty());
  if (p.report().diagnostics().empty()) return "";
  return verify::code_id(p.report().diagnostics().front().code);
}

int first_line(const RequestParser& p) {
  EXPECT_FALSE(p.report().diagnostics().empty());
  if (p.report().diagnostics().empty()) return 0;
  return p.report().diagnostics().front().spice_line;
}

RequestParser::State feed_all(RequestParser* p, const std::string& bytes) {
  return p->feed(bytes.data(), bytes.size());
}

// --- well-formed parses ------------------------------------------------

TEST(RequestParserTest, ParsesMinimalGet) {
  RequestParser p;
  ASSERT_EQ(feed_all(&p, "GET /status HTTP/1.1\r\n\r\n"),
            RequestParser::State::Done);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/status");
  EXPECT_TRUE(p.request().body.empty());
}

TEST(RequestParserTest, ParsesBodyAndLowercasesHeaders) {
  RequestParser p;
  ASSERT_EQ(feed_all(&p,
                     "POST /submit HTTP/1.1\r\nContent-Length: 4\r\n"
                     "X-Mixed-CASE:  padded value \r\n\r\n{\"a\""),
            RequestParser::State::Done);
  EXPECT_EQ(p.request().body, "{\"a\"");
  EXPECT_EQ(p.request().headers.at("x-mixed-case"), "padded value");
}

TEST(RequestParserTest, ByteAtATimeFeedMatchesOneShot) {
  const std::string wire =
      "POST /submit HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"k\": {}}";
  RequestParser once;
  ASSERT_EQ(feed_all(&once, wire), RequestParser::State::Done);
  RequestParser drip;
  for (const char c : wire) drip.feed(&c, 1);
  ASSERT_EQ(drip.state(), RequestParser::State::Done);
  EXPECT_EQ(drip.request().body, once.request().body);
  EXPECT_EQ(drip.request().headers, once.request().headers);
}

TEST(RequestParserTest, FurtherFeedsAfterDoneAreIgnored) {
  RequestParser p;
  feed_all(&p, "GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(feed_all(&p, "junk after the request"),
            RequestParser::State::Done);
  EXPECT_EQ(p.request().target, "/");
}

// --- framing violations (E320) -----------------------------------------

TEST(RequestParserTest, RejectsBadRequestLine) {
  for (const char* wire :
       {"GET\r\n\r\n", "GET /x\r\n\r\n", "GET /x HTTP/1.1 extra\r\n\r\n",
        "GET /x FTP/9\r\n\r\n", "GET relative HTTP/1.1\r\n\r\n"}) {
    RequestParser p;
    EXPECT_EQ(feed_all(&p, wire), RequestParser::State::Failed) << wire;
    EXPECT_EQ(first_code(p), "E320") << wire;
    EXPECT_EQ(first_line(p), 1) << wire;
    EXPECT_EQ(p.http_status(), 400) << wire;
  }
}

TEST(RequestParserTest, RejectsHeaderWithoutColonWithItsLineNumber) {
  RequestParser p;
  feed_all(&p, "GET / HTTP/1.1\r\nGood: yes\r\nbad header line\r\n\r\n");
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E320");
  EXPECT_EQ(first_line(p), 3);  // 1-based: the third request line
}

TEST(RequestParserTest, RejectsControlBytesInTarget) {
  RequestParser p;
  feed_all(&p, "GET /sta\ttus HTTP/1.1\r\n\r\n");
  // The tab splits the request line into 4 tokens; either way it is a
  // framing error on line 1.
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E320");
}

TEST(RequestParserTest, RejectsJunkContentLength) {
  for (const char* cl : {"abc", "12x", "-5", "", "99999999999999999999"}) {
    RequestParser p;
    const std::string wire = std::string("POST /s HTTP/1.1\r\n") +
                             "Content-Length: " + cl + "\r\n\r\n";
    feed_all(&p, wire);
    ASSERT_EQ(p.state(), RequestParser::State::Failed) << cl;
    EXPECT_EQ(first_code(p), "E320") << cl;
  }
}

TEST(RequestParserTest, RejectsConflictingContentLengths) {
  RequestParser p;
  feed_all(&p,
           "POST /s HTTP/1.1\r\nContent-Length: 4\r\n"
           "Content-Length: 5\r\n\r\n");
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E320");
}

TEST(RequestParserTest, RejectsTransferEncoding) {
  RequestParser p;
  feed_all(&p, "POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E320");
}

TEST(RequestParserTest, RejectsBytesPastDeclaredLength) {
  RequestParser p;
  feed_all(&p, "POST /s HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}extra");
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E320");
}

// --- limit violations (E321 -> 413) ------------------------------------

TEST(RequestParserTest, BoundsRequestLine) {
  ProtocolLimits limits;
  limits.max_request_line = 64;
  RequestParser p(limits);
  feed_all(&p, "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n");
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E321");
  EXPECT_EQ(p.http_status(), 413);
}

TEST(RequestParserTest, BoundsHeaderBlockWithoutBuffering) {
  ProtocolLimits limits;
  limits.max_header_bytes = 256;
  RequestParser p(limits);
  // An endless header stream with no blank line: the parser must fail at
  // the cap, not buffer forever.
  const std::string chunk = "X-Filler: " + std::string(40, 'x') + "\r\n";
  const std::string head = "GET / HTTP/1.1\r\n";
  p.feed(head.data(), head.size());
  for (int i = 0; i < 100 && p.state() == RequestParser::State::NeedMore;
       ++i)
    p.feed(chunk.data(), chunk.size());
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E321");
}

TEST(RequestParserTest, BoundsHeaderCount) {
  ProtocolLimits limits;
  limits.max_headers = 4;
  RequestParser p(limits);
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 8; ++i)
    wire += "X-H" + std::to_string(i) + ": v\r\n";
  wire += "\r\n";
  feed_all(&p, wire);
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E321");
}

TEST(RequestParserTest, RejectsOversizedDeclaredBodyUpFront) {
  ProtocolLimits limits;
  limits.max_body_bytes = 1024;
  RequestParser p(limits);
  feed_all(&p, "POST /submit HTTP/1.1\r\nContent-Length: 999999\r\n\r\n");
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E321");
  EXPECT_EQ(p.http_status(), 413);
}

// --- truncation (E322 -> 408) ------------------------------------------

TEST(RequestParserTest, TruncationIsAnE322) {
  RequestParser p;
  feed_all(&p, "POST /s HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly ten");
  ASSERT_EQ(p.state(), RequestParser::State::NeedMore);
  p.fail_truncated("connection closed mid-request");
  ASSERT_EQ(p.state(), RequestParser::State::Failed);
  EXPECT_EQ(first_code(p), "E322");
  EXPECT_EQ(p.http_status(), 408);
}

TEST(RequestParserTest, TruncationAfterDoneIsIgnored) {
  RequestParser p;
  feed_all(&p, "GET / HTTP/1.1\r\n\r\n");
  p.fail_truncated("late");
  EXPECT_EQ(p.state(), RequestParser::State::Done);
}

// --- fuzz sweep: arbitrary byte soup never crashes ----------------------

TEST(RequestParserTest, ByteSoupNeverCrashesOrHangs) {
  // Deterministic pseudo-random soup (no std::rand: D502).
  uint32_t x = 0x2545F491u;
  for (int round = 0; round < 200; ++round) {
    ProtocolLimits limits;
    limits.max_header_bytes = 512;
    limits.max_body_bytes = 512;
    RequestParser p(limits);
    std::string soup;
    for (int i = 0; i < 300; ++i) {
      x ^= x << 13;
      x ^= x >> 17;
      x ^= x << 5;
      soup.push_back(static_cast<char>(x & 0xff));
    }
    // Occasionally lead with something request-shaped so deeper states
    // get fuzzed too.
    if (round % 3 == 0) soup = "POST /submit HTTP/1.1\r\n" + soup;
    p.feed(soup.data(), soup.size());
    // Whatever happened, the parser is in a defined state and a failed
    // parse carries at least one diagnostic.
    if (p.state() == RequestParser::State::Failed) {
      EXPECT_FALSE(p.report().diagnostics().empty());
    }
  }
}

// --- response serialization --------------------------------------------

TEST(ProtocolTest, ResponseRoundTripsThroughClientParser) {
  Response r;
  r.status = 404;
  r.body = "{\"error\": \"nope\"}";
  const Response back = service::parse_response(serialize_response(r));
  EXPECT_EQ(back.status, 404);
  EXPECT_EQ(back.body, r.body);
}

TEST(ProtocolTest, ErrorBodyCarriesEveryDiagnostic) {
  verify::VerifyReport report;
  verify::Diagnostic d;
  d.code = Code::ProtoFraming;
  d.severity = verify::Severity::Error;
  d.message = "first";
  d.spice_line = 2;
  report.add(d);
  d.message = "second";
  report.add(d);
  const util::json::Value v = util::json::parse(service::error_body(report));
  ASSERT_TRUE(v.find("error")->is_string());
  EXPECT_NE(v.find("error")->string.find("E320"), std::string::npos);
  EXPECT_EQ(v.find("diagnostics")->array.size(), 2u);
}

// --- the live daemon under attack --------------------------------------

/// A running server on a fresh socket with tight limits and a short read
/// timeout (the slow-loris bound the tests lean on).
class LiveServer {
public:
  LiveServer() {
    const std::string base = test::fresh_dir("live");
    service::ServerOptions opt;
    opt.socket_path = base + "/sock";
    opt.runs_dir = base + "/runs";
    opt.cache_dir = base + "/cache";
    opt.workers = 1;
    opt.io_threads = 2;
    opt.read_timeout_ms = 150;
    opt.limits.max_body_bytes = 8 * 1024;
    server_ = std::make_unique<service::Server>(dram::default_technology(),
                                                opt);
    socket_ = opt.socket_path;
    thread_ = std::thread([this] { server_->serve(); });
  }

  ~LiveServer() {
    server_->shutdown();
    thread_.join();
  }

  const std::string& socket() const { return socket_; }
  service::Server& server() { return *server_; }

private:
  std::unique_ptr<service::Server> server_;
  std::string socket_;
  std::thread thread_;
};

TEST(ServiceWireTest, MalformedFramingGets400WithE320) {
  LiveServer live;
  const std::string raw =
      service::raw_exchange(live.socket(), "NOT A REQUEST AT ALL\r\n\r\n");
  const Response r = service::parse_response(raw);
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("E320"), std::string::npos);
}

TEST(ServiceWireTest, SlowLorisGets408WithE322) {
  LiveServer live;
  // Half a request, then a pause longer than the daemon's read timeout.
  const std::string raw = service::raw_exchange(
      live.socket(),
      "POST /submit HTTP/1.1\r\nContent-Length: 60\r\n\r\n"
      "{\"client\": \"slow\", \"spec\"",
      5000, /*pause_ms=*/600);
  ASSERT_FALSE(raw.empty()) << "daemon hung instead of timing out";
  const Response r = service::parse_response(raw);
  EXPECT_EQ(r.status, 408);
  EXPECT_NE(r.body.find("E322"), std::string::npos);
}

TEST(ServiceWireTest, TruncatedBodyGets408) {
  LiveServer live;
  // Declared 500 body bytes, sent 10, then EOF (raw_exchange closes the
  // write side when it starts reading... the daemon sees the stall).
  const std::string raw = service::raw_exchange(
      live.socket(),
      "POST /submit HTTP/1.1\r\nContent-Length: 500\r\n\r\nten bytes!",
      5000);
  ASSERT_FALSE(raw.empty());
  const Response r = service::parse_response(raw);
  EXPECT_EQ(r.status, 408);
  EXPECT_NE(r.body.find("E322"), std::string::npos);
}

TEST(ServiceWireTest, OversizedSpecGets413BeforeTheBodyLands) {
  LiveServer live;
  const std::string raw = service::raw_exchange(
      live.socket(),
      "POST /submit HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n", 5000);
  const Response r = service::parse_response(raw);
  EXPECT_EQ(r.status, 413);
  EXPECT_NE(r.body.find("E321"), std::string::npos);
}

// --- router semantics (E323) through the in-process handle() -----------

service::Response handle(service::Server& s, const std::string& method,
                         const std::string& target,
                         const std::string& body = "") {
  Request req;
  req.method = method;
  req.target = target;
  req.body = body;
  return s.handle(req);
}

TEST(ServiceRouterTest, UnknownRouteIs404E323) {
  LiveServer live;
  const Response r = handle(live.server(), "GET", "/nope");
  EXPECT_EQ(r.status, 404);
  EXPECT_NE(r.body.find("E323"), std::string::npos);
}

TEST(ServiceRouterTest, WrongMethodIs405) {
  LiveServer live;
  EXPECT_EQ(handle(live.server(), "GET", "/submit").status, 405);
  EXPECT_EQ(handle(live.server(), "POST", "/status").status, 405);
  EXPECT_EQ(handle(live.server(), "GET", "/shutdown").status, 405);
}

TEST(ServiceRouterTest, DuplicateKeyJsonBodyIsLineNumberedE323) {
  LiveServer live;
  const Response r = handle(live.server(), "POST", "/submit",
                            "{\"client\": \"a\",\n \"client\": \"b\"}");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("E323"), std::string::npos);
  EXPECT_NE(r.body.find("line 2"), std::string::npos);
}

TEST(ServiceRouterTest, MissingSpecIs400) {
  LiveServer live;
  const Response r =
      handle(live.server(), "POST", "/submit", "{\"client\": \"a\"}");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("E323"), std::string::npos);
}

TEST(ServiceRouterTest, InvalidSpecComesBackWithE30xDiagnostics) {
  LiveServer live;
  // A spec with an unknown defect: the campaign spec validator's own
  // diagnostics flow through the wire unchanged.
  const Response r = handle(
      live.server(), "POST", "/submit",
      "{\"client\": \"a\", \"spec\": {\"name\": \"bad\", "
      "\"defects\": [\"zz\"], \"points\": [{\"name\": \"n\"}]}}");
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("E30"), std::string::npos) << r.body;
}

TEST(ServiceRouterTest, UnknownSessionIs404) {
  LiveServer live;
  EXPECT_EQ(handle(live.server(), "GET", "/status/feedbeef").status, 404);
  EXPECT_EQ(handle(live.server(), "GET", "/report/feedbeef").status, 404);
}

TEST(ServiceRouterTest, GcWantsANonNegativeByteBudget) {
  LiveServer live;
  EXPECT_EQ(handle(live.server(), "POST", "/gc", "{}").status, 400);
  EXPECT_EQ(handle(live.server(), "POST", "/gc", "not json").status, 400);
  EXPECT_EQ(
      handle(live.server(), "POST", "/gc", "{\"max_bytes\": 1000000}")
          .status,
      200);
}

TEST(ServiceRouterTest, MetricsIsAValidManifest) {
  LiveServer live;
  const Response r = handle(live.server(), "GET", "/metrics");
  EXPECT_EQ(r.status, 200);
  const util::json::Value v = util::json::parse(r.body);
  EXPECT_TRUE(v.find("dramstress_manifest_version") != nullptr);
}

}  // namespace
}  // namespace dramstress
