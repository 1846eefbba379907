#ifndef SBFT_TESTS_CORE_WORKFLOW_EVIDENCE_H_
#define SBFT_TESTS_CORE_WORKFLOW_EVIDENCE_H_

// Exactly-once audit for workflow chains, read from the shard verifiers'
// hash-chained 2PC decision logs. Unlike applied_global() and
// aborted_global(), which watermark pruning truncates, a decision log
// keeps one entry per decision a shard applied, for the whole run; each
// entry's txn digest is Sha256(PutU64(global id)).

#include <gtest/gtest.h>

#include <set>

#include "common/codec.h"
#include "core/serverless_bft.h"
#include "crypto/sha256.h"

namespace sbft::core {

inline crypto::Digest DecisionDigest(TxnId global_id) {
  Encoder enc;
  enc.PutU64(global_id);
  return crypto::Sha256::Hash(enc.buffer());
}

/// Per-run workflow counters the callers assert on.
struct WorkflowAudit {
  uint64_t chains_seen = 0;
  uint64_t chains_completed = 0;
  uint64_t hop_retries = 0;
};

/// Checks every shard's decision log chain, that a shard decides each
/// global id at most once, atomicity (no global id applied on one shard
/// and aborted on another), and exactly-once per hop: of all attempts
/// ever issued for a hop, at most one applied — exactly one for a
/// completed chain.
inline WorkflowAudit AuditWorkflowChains(Architecture& arch) {
  std::set<crypto::Digest> applied;
  std::set<crypto::Digest> aborted;
  for (uint32_t s = 0; s < arch.shard_count(); ++s) {
    const storage::AuditLog& log = arch.plane(s)->verifier()->decision_log();
    EXPECT_TRUE(log.VerifyChain()) << "shard " << s << " decision log";
    std::set<crypto::Digest> decided_here;
    for (const storage::AuditLog::Entry& e : log.entries()) {
      EXPECT_TRUE(decided_here.insert(e.txn_digest).second)
          << "shard " << s << " decided txn " << e.txn_digest.ShortHex()
          << " twice";
      if (e.outcome == storage::AuditLog::Outcome::kApplied) {
        applied.insert(e.txn_digest);
      } else {
        aborted.insert(e.txn_digest);
      }
    }
  }
  for (const crypto::Digest& d : applied) {
    EXPECT_FALSE(aborted.contains(d))
        << "hop txn " << d.ShortHex() << " applied and aborted";
  }

  WorkflowAudit audit;
  for (const auto& source : arch.sources()) {
    for (const TrafficSource::ChainRecord& chain : source->chains()) {
      ++audit.chains_seen;
      if (chain.completed) ++audit.chains_completed;
      for (size_t hop = 0; hop < chain.hop_attempts.size(); ++hop) {
        const auto& attempts = chain.hop_attempts[hop];
        if (attempts.size() > 1) audit.hop_retries += attempts.size() - 1;
        // Two *different* attempt ids both applying would double-run the
        // function (the same id twice is caught per shard above).
        int applied_attempts = 0;
        for (TxnId id : attempts) {
          if (applied.contains(DecisionDigest(id))) ++applied_attempts;
        }
        EXPECT_LE(applied_attempts, 1)
            << "chain " << chain.chain_id << " hop " << hop
            << " applied twice";
        if (chain.completed) {
          // A completed chain committed every hop exactly once, and no
          // prefix is missing (no chain partially visible).
          EXPECT_EQ(applied_attempts, 1)
              << "chain " << chain.chain_id << " hop " << hop
              << " completed without an applied attempt";
        }
      }
    }
  }
  return audit;
}

}  // namespace sbft::core

#endif  // SBFT_TESTS_CORE_WORKFLOW_EVIDENCE_H_
