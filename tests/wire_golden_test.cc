// Golden wire frames: one fixed-value instance of every request and reply,
// the kError frame, the kTracedRequest envelope and a FileRecipe blob,
// pinned as hex. A codec change that alters any byte of any frame fails
// here even when encoder and decoder change together. Every golden frame
// must also decode back to itself, and every strict prefix of it must be
// rejected by its decoder (and, for requests, turned into a kError reply by
// Dispatch).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/recipe.h"
#include "src/core/server.h"
#include "src/net/message.h"
#include "src/net/service.h"
#include "src/storage/backend.h"
#include "src/util/fs_util.h"

namespace cdstore {
namespace {

// A 32-byte fingerprint with a recognizable pattern.
Fingerprint Fp(uint8_t seed) {
  Fingerprint fp(kFingerprintSize);
  for (size_t i = 0; i < fp.size(); ++i) {
    fp[i] = static_cast<uint8_t>(seed + i);
  }
  return fp;
}

std::vector<RecipeEntry> TwoEntryRecipe() {
  return {RecipeEntry{Fp(0x10), 4096, 1376}, RecipeEntry{Fp(0x20), 70000, 23350}};
}

ConstByteSpan Prefix(const Bytes& frame, size_t len) { return ConstByteSpan(frame).first(len); }

// Pins `m`'s frame to `hex`, checks that decoding restores every field
// (re-encoding the decoded message gives the same bytes), and that every
// strict prefix fails to decode.
template <class M>
Bytes CheckGolden(const std::string& name, const M& m, const std::string& hex) {
  SCOPED_TRACE(name);
  Bytes frame = Encode(m);
  EXPECT_EQ(HexEncode(frame), hex);
  M decoded;
  EXPECT_TRUE(Decode(frame, &decoded).ok());
  EXPECT_EQ(Encode(decoded), frame);
  for (size_t len = 0; len < frame.size(); ++len) {
    M partial;
    EXPECT_FALSE(Decode(Prefix(frame, len), &partial).ok()) << "prefix of " << len << " bytes";
  }
  return frame;
}

class WireGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions so;
    so.index_dir = dir_.Sub("server");
    auto server = CdstoreServer::Create(&backend_, so);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = std::move(server.value());
  }

  // A request golden: the CheckGolden checks, plus Dispatch must answer
  // every strict prefix with a kError frame (the handler never runs).
  template <class M>
  void CheckRequest(const std::string& name, const M& m, const std::string& hex) {
    Bytes frame = CheckGolden(name, m, hex);
    CheckDispatchRejectsPrefixes(name, frame);
  }

  void CheckDispatchRejectsPrefixes(const std::string& name, const Bytes& frame) {
    SCOPED_TRACE(name);
    for (size_t len = 0; len < frame.size(); ++len) {
      Bytes reply = Dispatch(*server_, Prefix(frame, len));
      EXPECT_EQ(PeekType(reply), MsgType::kError) << "prefix of " << len << " bytes";
    }
  }

  TempDir dir_;
  MemBackend backend_;
  std::unique_ptr<CdstoreServer> server_;
};

TEST_F(WireGoldenTest, DedupAndShareTransfer) {
  CheckRequest("FpQueryRequest", FpQueryRequest{0x0102030405060708ull, {Fp(0x40), Fp(0x80)}},
               "0108070605040302010220404142434445464748494a4b4c4d4e4f5051525354"
               "55565758595a5b5c5d5e5f20808182838485868788898a8b8c8d8e8f90919293"
               "9495969798999a9b9c9d9e9f");
  FpQueryReply fp_reply;
  for (int i = 0; i < 130; ++i) {  // length varint takes two bytes
    fp_reply.duplicate.push_back(static_cast<uint8_t>(i % 3 == 0));
  }
  CheckGolden("FpQueryReply", fp_reply,
              "0282010100000100000100000100000100000100000100000100000100000100"
              "0001000001000001000001000001000001000001000001000001000001000001"
              "0000010000010000010000010000010000010000010000010000010000010000"
              "0100000100000100000100000100000100000100000100000100000100000100"
              "0001000001");
  CheckGolden("FpQueryReply.empty", FpQueryReply{}, "0200");

  CheckRequest("UploadSharesRequest",
               UploadSharesRequest{7, {BytesOf("ab"), Bytes{}, BytesOf("share-3")}},
               "03070000000000000003026162000773686172652d33");
  CheckRequest("UploadSharesRequest.empty", UploadSharesRequest{9, {}}, "03090000000000000000");
  CheckGolden("UploadSharesReply", UploadSharesReply{3, 0xdeadbeef}, "0403000000efbeadde");

  CheckRequest("GetSharesRequest", GetSharesRequest{11, {Fp(0x33)}},
               "090b000000000000000120333435363738393a3b3c3d3e3f4041424344454647"
               "48494a4b4c4d4e4f505152");
  CheckGolden("GetSharesReply", GetSharesReply{{BytesOf("x"), BytesOf("yz")}},
              "0a02017802797a");
  CheckGolden("GetSharesReply.empty", GetSharesReply{}, "0a00");
}

// The zero-copy decoders read the same golden frames as their owning twins.
TEST_F(WireGoldenTest, ViewDecodersMatchOwningDecoders) {
  UploadSharesRequest upload{7, {BytesOf("ab"), Bytes{}, BytesOf("share-3")}};
  Bytes frame = Encode(upload);
  UploadSharesRequestView view;
  ASSERT_TRUE(DecodeView(frame, &view).ok());
  EXPECT_EQ(view.user, upload.user);
  ASSERT_EQ(view.shares.size(), upload.shares.size());
  for (size_t i = 0; i < view.shares.size(); ++i) {
    EXPECT_EQ(Bytes(view.shares[i].begin(), view.shares[i].end()), upload.shares[i]);
  }
  for (size_t len = 0; len < frame.size(); ++len) {
    UploadSharesRequestView partial;
    EXPECT_FALSE(DecodeView(Prefix(frame, len), &partial).ok()) << "prefix of " << len;
  }

  GetSharesReply reply{{BytesOf("x"), BytesOf("yz")}};
  Bytes reply_frame = Encode(reply);
  std::vector<ConstByteSpan> spans;
  ASSERT_TRUE(DecodeShareSpans(reply_frame, &spans).ok());
  ASSERT_EQ(spans.size(), reply.shares.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(Bytes(spans[i].begin(), spans[i].end()), reply.shares[i]);
  }
  for (size_t len = 0; len < reply_frame.size(); ++len) {
    std::vector<ConstByteSpan> partial;
    EXPECT_FALSE(DecodeShareSpans(Prefix(reply_frame, len), &partial).ok())
        << "prefix of " << len;
  }
}

TEST_F(WireGoldenTest, FilesAndGenerations) {
  PutFileRequest put;
  put.user = 5;
  put.path_key = BytesOf("path-share");
  put.path_id = BytesOf("id");
  put.path_name_len = 17;
  put.file_size = 74096;
  put.timestamp_ms = 1700000000000ull;
  put.recipe = TwoEntryRecipe();
  CheckRequest("PutFileRequest.new", put,
               "0505000000000000000a706174682d7368617265026964110000007021010000"
               "0000000000000000000000000068e5cf8b010000022010111213141516171819"
               "1a1b1c1d1e1f202122232425262728292a2b2c2d2e2f00100000600500002020"
               "2122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f70"
               "110100365b0000");
  put.mode = PutFileMode::kReplaceLatest;
  put.recipe.clear();
  CheckRequest("PutFileRequest.replace", put,
               "0505000000000000000a706174682d7368617265026964110000007021010000"
               "0000000100000000000000000068e5cf8b01000000");
  put.mode = PutFileMode::kPutGeneration;
  put.generation_id = 4;
  put.path_id.clear();
  CheckRequest("PutFileRequest.put_generation", put,
               "0505000000000000000a706174682d7368617265001100000070210100000000"
               "000204000000000000000068e5cf8b01000000");
  CheckGolden("PutFileReply", PutFileReply{42}, "062a00000000000000");

  CheckRequest("GetFileRequest", GetFileRequest{5, BytesOf("path-share"), 3},
               "0705000000000000000a706174682d73686172650300000000000000");
  CheckGolden("GetFileReply", GetFileReply{3, 74096, TwoEntryRecipe()},
              "08030000000000000070210100000000000220101112131415161718191a1b1c"
              "1d1e1f202122232425262728292a2b2c2d2e2f00100000600500002020212223"
              "2425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f70110100"
              "365b0000");

  CheckRequest("DeleteFileRequest", DeleteFileRequest{5, BytesOf("path-share")},
               "0b05000000000000000a706174682d7368617265");
  CheckGolden("DeleteFileReply", DeleteFileReply{2, 300}, "0c020000002c010000");

  CheckRequest("ListVersionsRequest", ListVersionsRequest{5, BytesOf("path-share")},
               "1105000000000000000a706174682d7368617265");
  CheckGolden("ListVersionsReply",
              ListVersionsReply{{VersionInfo{1, 1000, 900, 3, 1700000000000ull},
                                 VersionInfo{2, 2000, 10, 6, 1700000604800ull}}},
              "12020100000000000000e8030000000000008403000000000000030000000000"
              "00000068e5cf8b0100000200000000000000d0070000000000000a0000000000"
              "0000060000000000000080a2eecf8b010000");
  CheckGolden("ListVersionsReply.empty", ListVersionsReply{}, "1200");

  CheckRequest("DeleteVersionRequest", DeleteVersionRequest{5, BytesOf("path-share"), 2},
               "1305000000000000000a706174682d73686172650200000000000000");
  CheckGolden("DeleteVersionReply", DeleteVersionReply{129}, "1481000000");

  RetentionPolicy policy{2, 604800000ull, 1700000604800ull};
  CheckRequest("ApplyRetentionRequest", ApplyRetentionRequest{5, BytesOf("path-share"), policy},
               "1505000000000000000a706174682d73686172650200000000840c2400000000"
               "80a2eecf8b010000");
  CheckGolden("ApplyRetentionReply", ApplyRetentionReply{2, 7, 3000, {1, 2}},
              "160200000007000000b80b000000000000020100000000000000020000000000"
              "0000");
  CheckGolden("ApplyRetentionReply.empty", ApplyRetentionReply{},
              "160000000000000000000000000000000000");
}

TEST_F(WireGoldenTest, NamespaceControlPlane) {
  CheckRequest("ListPathsRequest", ListPathsRequest{5, BytesOf("cur"), 64},
               "1705000000000000000363757240000000");
  ListPathsReply paths;
  paths.paths.push_back(PathInfo{BytesOf("id-a"), BytesOf("name-a"), 6, 3, 3, 1700000000000ull,
                                 4096});
  paths.paths.push_back(PathInfo{Bytes{}, Bytes{}, 0, 1, 1, 0, 0});
  paths.next_cursor = BytesOf("next");
  CheckGolden("ListPathsReply", paths,
              "18020469642d61066e616d652d61060000000300000000000000030000000000"
              "00000068e5cf8b01000000100000000000000000000000000100000000000000"
              "010000000000000000000000000000000000000000000000046e657874");
  CheckGolden("ListPathsReply.empty", ListPathsReply{}, "180000");

  RetentionPolicy policy{2, 604800000ull, 1700000604800ull};
  CheckRequest("ApplyRetentionNamespaceRequest", ApplyRetentionNamespaceRequest{5, policy, 128},
               "1905000000000000000200000000840c240000000080a2eecf8b01000080000000");
  ApplyRetentionNamespaceReply sweep;
  sweep.paths_swept = 10;
  sweep.paths_removed = 1;
  sweep.generations_deleted = 4;
  sweep.shares_orphaned = 12;
  sweep.logical_bytes_deleted = 8192;
  sweep.pages = 2;
  sweep.per_path = {PathRetentionResult{BytesOf("id-a"), 3, 6144, 1},
                    PathRetentionResult{Bytes{}, 1, 2048, 0}};
  CheckGolden("ApplyRetentionNamespaceReply", sweep,
              "1a0a00000000000000010000000000000004000000000000000c000000002000"
              "000000000002000000020469642d610300000000180000000000000100010000"
              "00000800000000000000");
}

TEST_F(WireGoldenTest, MaintenanceAndObservability) {
  CheckRequest("StatsRequest", StatsRequest{}, "0d");
  CheckGolden("StatsReply", StatsReply{100, 1 << 20, 3, 2, 5},
              "0e64000000000000000000100000000000030000000000000002000000000000"
              "000500000000000000");
  CheckRequest("GcRequest", GcRequest{}, "0f");
  CheckGolden("GcReply", GcReply{4, 1, 65536, 17},
              "1004000000000000000100000000000000000001000000000011000000000000"
              "00");

  CheckRequest("GetMetricsRequest", GetMetricsRequest{}, "1b");
  GetMetricsReply metrics;
  MetricSample hist;
  hist.name = "cdstore_server_rpc_latency_ns";
  hist.labels = {{"rpc", "FpQuery"}, {"cloud", "0"}};
  hist.kind = MetricSample::kHistogram;
  // Varints of two and six bytes, and a bounds count over 127.
  hist.count = 300;
  hist.sum = 1ull << 40;
  for (uint64_t i = 0; i < 130; ++i) {
    hist.bounds.push_back(i * 1000);
  }
  hist.bucket_counts = {0, 200, 70000};
  MetricSample gauge;
  gauge.name = "cdstore_client_upload_pool_occupancy";
  gauge.kind = MetricSample::kGauge;
  gauge.value = -5;
  metrics.samples = {hist, gauge};
  CheckGolden("GetMetricsReply", metrics,
              "1c021d636473746f72655f7365727665725f7270635f6c6174656e63795f6e73"
              "020203727063074670517565727905636c6f756401300000000000000000ac02"
              "808080808020820100e807d00fb817a01f8827f02ed836c03ea846904ef855e0"
              "5dc865b06d9875807de88401d08c01b89401a09c0188a401f0ab01d8b301c0bb"
              "01a8c30190cb01f8d201e0da01c8e201b0ea0198f20180fa01e88102d08902b8"
              "9102a0990288a102f0a802d8b002c0b802a8c00290c802f8cf02e0d702c8df02"
              "b0e70298ef0280f702e8fe02d08603b88e03a09603889e03f0a503d8ad03c0b5"
              "03a8bd0390c503f8cc03e0d403c8dc03b0e40398ec0380f403e8fb03d08304b8"
              "8b04a09304889b04f0a204d8aa04c0b204a8ba0490c204f8c904e0d104c8d904"
              "b0e10498e90480f104e8f804d08005b88805a09005889805f09f05d8a705c0af"
              "05a8b70590bf05f8c605e0ce05c8d605b0de0598e60580ee05e8f505d0fd05b8"
              "8506a08d06889506f09c06d8a406c0ac06a8b40690bc06f8c306e0cb06c8d306"
              "b0db0698e30680eb06e8f206d0fa06b88207a08a07889207f09907d8a107c0a9"
              "07a8b10790b907f8c007e0c807c8d007b0d80798e00780e807e8ef070300c801"
              "f0a20424636473746f72655f636c69656e745f75706c6f61645f706f6f6c5f6f"
              "63637570616e63790100fbffffffffffffff00000000");
  CheckGolden("GetMetricsReply.empty", GetMetricsReply{}, "1c00");

  CheckRequest("GetTracesRequest", GetTracesRequest{}, "1d");
  GetTracesReply traces;
  traces.spans = {TraceSpanSample{0xabc, 2, 1, 1000, 250, 77, "serve", "FpQuery"}};
  traces.slow = {SlowTraceSample{0xabc, 900000, 1, "upload"}};
  traces.spans_recorded = 300;
  traces.spans_dropped = 1ull << 35;
  traces.unsampled = 0;
  traces.flight_evictions = 128;
  CheckGolden("GetTracesReply", traces,
              "1e01bc0a00000000000002000000000000000100000000000000e80300000000"
              "0000fa000000000000004d000000057365727665074670517565727901bc0a00"
              "0000000000a0bb0d0000000000010675706c6f6164ac02808080808001008001");
  CheckGolden("GetTracesReply.empty", GetTracesReply{}, "1e000000000000");
}

TEST_F(WireGoldenTest, ErrorFrame) {
  Bytes frame = EncodeError(Status::NotFound("gone"));
  EXPECT_EQ(HexEncode(frame), "000204676f6e65");
  Status st = DecodeIfError(frame);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "gone");
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodeIfError(Prefix(frame, len)).ok()) << "prefix of " << len;
  }
}

TEST_F(WireGoldenTest, TracedEnvelope) {
  Bytes inner = Encode(GetFileRequest{5, BytesOf("path-share"), 3});
  Bytes frame = WrapTraced(TraceContextHeader{0x1122334455667788ull, 0x99, 1}, inner);
  EXPECT_EQ(HexEncode(frame),
            "1f88776655443322119900000000000000010705000000000000000a70617468"
            "2d73686172650300000000000000");
  TraceContextHeader ctx;
  ConstByteSpan unwrapped;
  ASSERT_TRUE(UnwrapTraced(frame, &ctx, &unwrapped).ok());
  EXPECT_EQ(ctx.trace_id, 0x1122334455667788ull);
  EXPECT_EQ(ctx.parent_span_id, 0x99u);
  EXPECT_EQ(ctx.sampled, 1);
  EXPECT_EQ(Bytes(unwrapped.begin(), unwrapped.end()), inner);
  // A strict prefix either breaks the envelope or truncates the inner frame.
  for (size_t len = 0; len < frame.size(); ++len) {
    GetFileRequest req;
    Status st = UnwrapTraced(Prefix(frame, len), &ctx, &unwrapped);
    if (st.ok()) {
      st = Decode(unwrapped, &req);
    }
    EXPECT_FALSE(st.ok()) << "prefix of " << len;
  }
  CheckDispatchRejectsPrefixes("TracedRequest", frame);
}

TEST_F(WireGoldenTest, FileRecipeBlob) {
  FileRecipe recipe{74096, TwoEntryRecipe()};
  Bytes blob = recipe.Serialize();
  EXPECT_EQ(HexEncode(blob),
            "70210100000000000220101112131415161718191a1b1c1d1e1f202122232425"
            "262728292a2b2c2d2e2f001000006005000020202122232425262728292a2b2c"
            "2d2e2f303132333435363738393a3b3c3d3e3f70110100365b0000");
  auto decoded = FileRecipe::Deserialize(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded.value().Serialize(), blob);
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(FileRecipe::Deserialize(Prefix(blob, len)).ok()) << "prefix of " << len;
  }
}

}  // namespace
}  // namespace cdstore
