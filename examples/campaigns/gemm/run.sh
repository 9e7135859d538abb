#!/bin/sh
# One XgemmDirect evaluation on the simulated device: the workload file
# (device + m n k) arrives via ATF_SOURCE, the tuning parameters via
# ATF_TP_*, and the measured runtime goes to ATF_LOG_FILE. Build the
# bridge first: cargo build -p atf-bench --release
# ATF_GEMM_COST names another atf-bench binary to use.
exec "${ATF_GEMM_COST:-target/release/atf-bench}" gemm-cost
