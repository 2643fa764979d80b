"""Calibration constants for the simulated substrate.

Every constant here is traceable to a number reported in the PALAEMON paper
(Gregor et al., DSN 2020) or to well-known hardware characteristics the paper
relies on. Benchmarks assert *shapes* (orderings, ratios, crossovers) against
these; they are the single source of truth so that an experiment cannot
silently drift from the model it claims to reproduce.

Units: seconds for latencies, bytes for sizes, operations/second for rates.
"""

from __future__ import annotations

from dataclasses import dataclass

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

# --------------------------------------------------------------------------
# Table II — enclave page-operation throughput (MB/s measured on Xeon E3-1270)
# --------------------------------------------------------------------------

#: Allocating memory and copying data into the enclave ("bookkeeping").
PAGE_BOOKKEEPING_BPS = 1_292 * MB

#: Evicting EPC pages when the enclave exceeds the EPC.
PAGE_EVICTION_BPS = 1_219 * MB

#: Measuring page content into MRENCLAVE (EEXTEND) — the slow one.
PAGE_MEASUREMENT_BPS = 148 * MB

#: Adding pages to the enclave (EADD).
PAGE_ADDITION_BPS = 2_853 * MB

#: SGX page size.
PAGE_SIZE = 4 * KB

#: EPC reserved by the evaluation cluster's BIOS (128 MB, §V-B).
EPC_SIZE_DEFAULT = 128 * MB

#: Fraction of the EPC usable for enclave pages (SGX metadata overhead).
EPC_USABLE_FRACTION = 0.73

# --------------------------------------------------------------------------
# Fig 9 — startup scaling (per-start costs and platform parallelism)
# --------------------------------------------------------------------------

#: Hyper-threads on the evaluation machine (Xeon E3-1270 v6: 4C/8T).
CPU_HYPERTHREADS = 8

#: Native process start cost; 8 threads saturate at ~3700 starts/s.
NATIVE_START_CPU_SECONDS = CPU_HYPERTHREADS / 3_700.0

#: Serialized (driver-global lock) EPC setup per SGX start; caps SGX w/o
#: attestation at ~100 starts/s regardless of parallelism.
SGX_DRIVER_LOCK_SECONDS_PER_START = 1 / 100.0

# --------------------------------------------------------------------------
# Fig 8 — attestation phase latencies (seconds)
# --------------------------------------------------------------------------

#: Key-pair generation + DNS + TCP + TLS handshake (similar for all variants).
ATTEST_INIT_SECONDS = 4.0e-3

#: Local quote generation and send, PALAEMON variant (Ed25519-class crypto).
ATTEST_SEND_QUOTE_PALAEMON_SECONDS = 1.5e-3

#: Quote generation and send for IAS (EPID crypto + extra round trip).
ATTEST_SEND_QUOTE_IAS_SECONDS = 35.0e-3

#: Waiting for PALAEMON to confirm attestation (local verification).
ATTEST_WAIT_PALAEMON_SECONDS = 8.0e-3

#: Waiting for IAS to confirm, client in Portland OR (close to IAS).
ATTEST_WAIT_IAS_US_SECONDS = 230.0e-3

#: Waiting for IAS to confirm, client in Europe.
ATTEST_WAIT_IAS_EU_SECONDS = 245.0e-3

#: Receiving the configuration after successful attestation.
ATTEST_RECEIVE_CONFIG_SECONDS = 1.5e-3

# --------------------------------------------------------------------------
# Fig 10 — monotonic counter throughput (increments/second)
# --------------------------------------------------------------------------

#: SGX platform counter: one increment every 50 ms, i.e. <= 20/s by spec;
#: measured 13/s end to end.
SGX_COUNTER_INCREMENT_INTERVAL_SECONDS = 50.0e-3

#: SGX platform counters wear out; public measurements place NVRAM endurance
#: in the ~1M-write class (paper cites TPM wear of 300k-1.4M).
SGX_COUNTER_WEAR_LIMIT = 1_000_000

#: TPM 2.0 counters: ~10 increments/s, wear out after 300k-1.4M writes.
TPM_COUNTER_RATE = 10.0
TPM_COUNTER_WEAR_LIMIT_MIN = 300_000
TPM_COUNTER_WEAR_LIMIT_MAX = 1_400_000

#: File-based counter, native mode (open/increment/write/close): 682,721/s.
FILE_COUNTER_NATIVE_RATE = 682_721.0

#: File-based counter inside SGX (memory-mapped by the runtime): 1,380,381/s.
FILE_COUNTER_SGX_RATE = 1_380_381.0

#: + transparent encryption with caching: 1,473,748/s.
FILE_COUNTER_ENCRYPTED_RATE = 1_473_748.0

#: + strict mode (tags pushed to PALAEMON): 1,463,140/s.
FILE_COUNTER_PALAEMON_RATE = 1_463_140.0

# --------------------------------------------------------------------------
# Fig 11 — tag latency and secret-injection overhead
# --------------------------------------------------------------------------

#: Reading the most recent tag from the PALAEMON service (no disk commit).
TAG_READ_LATENCY_SECONDS = 4.5e-3

#: Updating the tag (the service database commits to disk): ~6x the read.
TAG_UPDATE_LATENCY_SECONDS = 27.0e-3

#: Reading a plain 4 kB file from the page cache (baseline, Fig 11 right).
PLAIN_FILE_READ_4K_SECONDS = 2.619e-3

#: Same read through transparent decryption: 2.02x the baseline.
ENCRYPTED_FILE_READ_FACTOR = 2.02

#: Reading a config file with injected secrets served from enclave memory:
#: 0.36x the plain baseline (1 or 10 secrets — count does not matter).
INJECTED_FILE_READ_FACTOR = 0.36

# --------------------------------------------------------------------------
# sim.network — round-trip times per distance class (seconds)
# --------------------------------------------------------------------------

RTT_SAME_RACK = 0.10e-3
RTT_SAME_DC = 0.50e-3
RTT_300_KM = 6.0e-3
RTT_7000_KM = 90.0e-3
RTT_11000_KM = 150.0e-3

#: TLS 1.2-style handshake: 2 round trips plus asymmetric crypto.
TLS_HANDSHAKE_ROUND_TRIPS = 2
TLS_HANDSHAKE_CRYPTO_SECONDS = 1.2e-3

#: Per-message AEAD cost on the channel (small messages).
TLS_RECORD_CRYPTO_SECONDS = 3.0e-6

# --------------------------------------------------------------------------
# Fig 13 — approval service
# --------------------------------------------------------------------------

#: Service time of an approval request inside the TEE with TLS: the knee of
#: the throughput/latency curve sits at ~210 req/s.
APPROVAL_TEE_TLS_SERVICE_SECONDS = 1 / 210.0

#: Native (no TEE) approval handler service time.
APPROVAL_NATIVE_SERVICE_SECONDS = 1 / 420.0

#: Extra per-request cost of TLS record processing for the approval service.
APPROVAL_TLS_EXTRA_SECONDS = 0.4e-3

# --------------------------------------------------------------------------
# EPC paging (Fig 17d's MariaDB model)
# --------------------------------------------------------------------------

#: Cost of one EPC page fault (evict + reload + crypto).
EPC_PAGE_FAULT_SECONDS = 25.0e-6

# --------------------------------------------------------------------------
# Fig 14-17 — macro-benchmark anchors (requests/second, transactions/second)
# --------------------------------------------------------------------------

#: Barbican native peak (interpreted CPython handler).
BARBICAN_NATIVE_PEAK_RPS = 28.0
#: BarbiE outperforms native thanks to its small compiled TCB.
BARBIE_PEAK_RPS = 34.0
#: PALAEMON-hardened Barbican, pre-Spectre microcode.
BARBICAN_PALAEMON_PEAK_RPS = 24.0
#: Post-Foreshadow microcode costs PALAEMON-hardened Barbican ~30%.
MICROCODE_PENALTY_FACTOR = 0.70
#: BarbiE barely suffers (few enclave exits, little EPC paging).
BARBIE_MICROCODE_PENALTY_FACTOR = 0.95

#: Vault native-with-TLS peak.
VAULT_NATIVE_PEAK_RPS = 10_000.0
#: PALAEMON hardware mode reaches 61% of native (1.9 GB heap => EPC paging).
VAULT_HW_FRACTION = 0.61
#: Emulation mode reaches 82% of native.
VAULT_EMU_FRACTION = 0.82

#: memcached native peak with stunnel TLS.
MEMCACHED_NATIVE_PEAK_RPS = 430_000.0
MEMCACHED_HW_FRACTION = 0.595
MEMCACHED_EMU_FRACTION = 0.653

#: NGINX native peak on 67 kB GETs.
NGINX_NATIVE_PEAK_RPS = 7_800.0
NGINX_PALAEMON_HW_FRACTION = 0.80
NGINX_PALAEMON_EMU_FRACTION = 0.84
#: Encrypting *all* served files costs far more than SGX itself.
NGINX_SHIELD_HW_FRACTION = 0.45
NGINX_SHIELD_EMU_FRACTION = 0.48
#: Average HTML page size used by the paper's NGINX benchmark.
NGINX_FILE_SIZE = 67 * KB

#: ZooKeeper 3-node cluster: native read peak; shielded reads run *better*
#: (memory-mapped shielded I/O offsets stunnel's userspace TLS copies).
ZOOKEEPER_NATIVE_READ_PEAK_RPS = 80_000.0
ZOOKEEPER_SHIELD_READ_ADVANTAGE = 1.15
#: Writes involve quorum consensus over TLS: native wins.
ZOOKEEPER_NATIVE_WRITE_PEAK_RPS = 42_000.0
ZOOKEEPER_SHIELD_WRITE_FRACTION = 0.72

#: Buffer-pool sizes swept by the paper (MB).
MARIADB_BUFFER_POOL_SIZES_MB = (8, 64, 128, 256, 512)

#: Production ML use case (§VI): per-image inference latency.
ML_NATIVE_INFERENCE_SECONDS = 0.323
ML_PALAEMON_INFERENCE_SECONDS = 1.202


@dataclass(frozen=True)
class MicrocodeLevel:
    """A CPU microcode revision.

    The paper evaluates pre-Spectre (0x58) and post-Foreshadow (0x8e)
    microcodes; the latter flushes L1 on every enclave exit (L1TF
    mitigation), which Fig 14 charges as a calibrated peak-rate factor.
    """

    name: str
    revision: int

    @property
    def flushes_l1_on_exit(self) -> bool:
        return self.revision >= 0x8E


MICROCODE_PRE_SPECTRE = MicrocodeLevel(name="pre-Spectre", revision=0x58)

MICROCODE_POST_FORESHADOW = MicrocodeLevel(name="post-Foreshadow",
                                           revision=0x8E)
