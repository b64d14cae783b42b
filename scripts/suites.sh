# Single source of truth for the per-job ctest suite regexes. CI jobs (and
# local runs) source this file instead of repeating the lists inline, so a
# new concurrency-sensitive suite is added in exactly one place.
#
# Usage:
#   . scripts/suites.sh
#   ctest -R "$CDSTORE_TSAN_SUITES"

# Concurrency-sensitive suites raced under ThreadSanitizer: the striped-lock
# server, the TCP worker pool, the pipelines, the dedup lookup accel, the
# LSM (iterators reading a memtable while writers add to it), the container
# store (fetches outside its lock while appends seal), and the sync
# primitives themselves.
CDSTORE_TSAN_SUITES='^(server_service_test|cloud_net_test|bounded_queue_test|pipeline_stream_test|client_session_test|core_test|versioning_test|namespace_test|retry_test|http_backend_test|faultnet_test|sync_test|stats_race_test|obs_test|trace_obs_test|dedup_accel_test|kvstore_test|kvstore_model_test|storage_test)$'

# Span-juggling and container-rewriting layers checked under ASan+UBSan,
# plus the client pipelines (the zero-copy span-decode download and the
# upload/download oracle tests) and the LSM's in-place block decoding.
CDSTORE_ASAN_SUITES='^(storage_test|dedup_test|dedup_accel_test|gc_test|versioning_test|namespace_test|kvstore_test|kvstore_model_test|obs_test|trace_obs_test|wire_golden_test|client_session_test|pipeline_stream_test)$'

# Retry/deadline robustness suites driven through fault-injecting servers.
CDSTORE_FAULT_SUITES='^(retry_test|http_backend_test|faultnet_test|cloud_net_test)$'
