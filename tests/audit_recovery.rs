//! Crash recovery and tamper reporting for the persisted audit
//! pipeline: a drainer killed mid-segment, a tail torn at an arbitrary
//! byte offset, and damaged or missing sealed segments must all come
//! back as *reported* conditions — a recovered prefix, a truncated
//! tail, a failed verify — never as a panic and never as a silently
//! wrong chain.

use extsec_core::{AuditPipeline, AuditQuery, AuditRecord, Outcome, PipelineConfig, SegmentStatus};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "extsec-audit-recovery-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

fn record(seq: u64) -> AuditRecord {
    AuditRecord {
        seq,
        principal: (seq % 5) as u32,
        generation: 1,
        mode: 0,
        outcome: if seq.is_multiple_of(4) {
            Outcome::DacNoEntry
        } else {
            Outcome::Allow
        },
        path: format!("/svc/fs/f{}", seq % 9),
    }
}

/// Every persisted event, across however many query pages it takes.
fn all_seqs(pipeline: &AuditPipeline) -> Vec<u64> {
    let mut seqs = Vec::new();
    let mut query = AuditQuery::default();
    loop {
        let page = pipeline.query(&query).unwrap();
        seqs.extend(page.records.iter().map(|r| r.seq));
        if !page.truncated {
            return seqs;
        }
        query.seq_min = page.next_seq;
    }
}

/// The drainer dies mid-segment without flushing or sealing. Reopening
/// the directory must recover a chain-valid prefix, and appending to
/// the recovered pipeline must extend that chain seamlessly.
#[test]
fn crashed_drainer_recovers_a_prefix_and_the_chain_continues() {
    const BEFORE: u64 = 120;
    const AFTER: u64 = 50;
    let dir = scratch_dir("crash");
    let config = PipelineConfig {
        segment_max_bytes: 512, // several segments before the crash
        ..PipelineConfig::default()
    };

    let pipeline = AuditPipeline::open_dir(&dir, config.clone()).unwrap();
    for seq in 0..BEFORE {
        assert_eq!(pipeline.ring().append(&record(seq)), seq);
    }
    pipeline.crash_for_test(); // no flush, no seal, no fsync

    let recovered = AuditPipeline::open_dir(&dir, config).unwrap();
    let resume = recovered.next_seq();
    assert!(resume <= BEFORE, "recovered cursor ran past what was fed");
    let report = recovered.verify().unwrap();
    assert!(report.ok, "recovered prefix failed verify: {report:?}");

    // The survivors are a gapless prefix: the drainer persists in
    // sequence order and recovery truncates back to the last
    // chain-valid entry.
    let seqs = all_seqs(&recovered);
    assert_eq!(seqs, (0..resume).collect::<Vec<_>>());

    // New records splice onto the recovered chain head.
    for seq in resume..resume + AFTER {
        assert_eq!(recovered.ring().append(&record(seq)), seq);
    }
    recovered.flush().unwrap();
    let report = recovered.verify().unwrap();
    assert!(report.ok, "extended chain failed verify: {report:?}");
    assert_eq!(report.next_seq, resume + AFTER);
    assert_eq!(
        all_seqs(&recovered),
        (0..resume + AFTER).collect::<Vec<_>>()
    );

    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a multi-segment chain, shuts down cleanly, and returns the
/// names of the sealed segments (oldest first).
fn build_chain(dir: &Path) -> Vec<String> {
    let pipeline = AuditPipeline::open_dir(
        dir,
        PipelineConfig {
            segment_max_bytes: 512,
            ..PipelineConfig::default()
        },
    )
    .unwrap();
    for seq in 0..150 {
        assert_eq!(pipeline.ring().append(&record(seq)), seq);
    }
    pipeline.flush().unwrap();
    let report = pipeline.verify().unwrap();
    assert!(report.ok, "baseline chain failed verify: {report:?}");
    let sealed: Vec<String> = report
        .segments
        .iter()
        .filter(|s| s.sealed)
        .map(|s| s.name.clone())
        .collect();
    assert!(sealed.len() >= 2, "expected several sealed segments");
    pipeline.shutdown();
    sealed
}

/// Damage to a *sealed* segment — byte flips anywhere, truncation, or
/// outright deletion — survives a reopen (sealed history is verified
/// lazily, not at startup), is reported by `verify` as a per-segment
/// failure, and does not stop the pipeline from recording new events.
#[test]
fn sealed_segment_damage_is_reported_and_recording_continues() {
    enum Hurt {
        Flip(f64),
        Truncate,
        Delete,
    }
    let cases = [
        ("flip-header", Hurt::Flip(0.0)),
        ("flip-mid", Hurt::Flip(0.5)),
        ("flip-tail", Hurt::Flip(0.999)),
        ("truncate", Hurt::Truncate),
        ("delete", Hurt::Delete),
    ];
    for (tag, hurt) in cases {
        let dir = scratch_dir(tag);
        let sealed = build_chain(&dir);
        let victim = dir.join(&sealed[sealed.len() / 2]);
        match hurt {
            Hurt::Flip(at) => {
                let mut bytes = std::fs::read(&victim).unwrap();
                let i = ((bytes.len() - 1) as f64 * at) as usize;
                bytes[i] ^= 0x20;
                std::fs::write(&victim, &bytes).unwrap();
            }
            Hurt::Truncate => {
                let bytes = std::fs::read(&victim).unwrap();
                std::fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
            }
            Hurt::Delete => std::fs::remove_file(&victim).unwrap(),
        }

        let reopened = AuditPipeline::open_dir(
            &dir,
            PipelineConfig {
                segment_max_bytes: 512,
                ..PipelineConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{tag}: reopen refused: {e}"));
        let report = reopened.verify().unwrap();
        assert!(!report.ok, "{tag}: verify missed the damage");
        let bad = report
            .segments
            .iter()
            .find(|s| !s.status.is_ok())
            .unwrap_or_else(|| panic!("{tag}: no segment reported damaged"));
        if matches!(hurt, Hurt::Delete) {
            assert_eq!(bad.status, SegmentStatus::Missing, "{tag}");
        }
        // Queries over the damaged log are a refusal or a partial
        // answer, never a panic.
        let _ = reopened.query(&AuditQuery::default());

        // The chain keeps growing past the damage, and verify keeps
        // reporting it.
        let resume = reopened.next_seq();
        for seq in resume..resume + 20 {
            assert_eq!(reopened.ring().append(&record(seq)), seq);
        }
        reopened.flush().unwrap();
        assert_eq!(reopened.next_seq(), resume + 20);
        assert!(!reopened.verify().unwrap().ok, "{tag}: damage forgotten");

        reopened.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// Tearing the unsealed tail at *any* byte offset — mid-entry,
    /// mid-header, at a boundary, or not at all — recovers to a
    /// verified, gapless prefix that new records then extend.
    #[test]
    fn torn_tail_at_any_offset_recovers_a_verified_prefix(cut in 0u32..=10_000) {
        const FED: u64 = 60;
        let dir = scratch_dir("torn");
        // Default segment size: the whole run stays in one unsealed
        // tail segment, the recovery path under test.
        let config = PipelineConfig::default();
        let pipeline = AuditPipeline::open_dir(&dir, config.clone()).unwrap();
        for seq in 0..FED {
            prop_assert_eq!(pipeline.ring().append(&record(seq)), seq);
        }
        pipeline.shutdown();

        let tail = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-"))
            })
            .expect("the tail segment on disk");
        let bytes = std::fs::read(&tail).unwrap();
        let keep = bytes.len() * cut as usize / 10_000;
        std::fs::write(&tail, &bytes[..keep]).unwrap();

        let recovered = AuditPipeline::open_dir(&dir, config).unwrap();
        let resume = recovered.next_seq();
        prop_assert!(resume <= FED);
        let report = recovered.verify().unwrap();
        prop_assert!(report.ok, "recovered tail failed verify: {report:?}");
        prop_assert_eq!(all_seqs(&recovered), (0..resume).collect::<Vec<_>>());

        for seq in resume..resume + 8 {
            prop_assert_eq!(recovered.ring().append(&record(seq)), seq);
        }
        recovered.flush().unwrap();
        prop_assert!(recovered.verify().unwrap().ok);
        prop_assert_eq!(
            all_seqs(&recovered),
            (0..resume + 8).collect::<Vec<_>>()
        );

        recovered.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
