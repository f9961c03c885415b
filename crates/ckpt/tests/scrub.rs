//! Crash-consistency campaign for the disk blob cache: a seeded storm
//! of torn writes, bit flips, garbage blobs and orphaned temp files,
//! asserting `CacheDir::scrub` detects 100% of the damage, quarantine
//! makes the cache serve-clean again, and a store/load cycle recovers
//! the quarantined keys.
//!
//! The seed comes from `NWO_CHAOS_SEED` (default fixed), and every
//! assertion message carries it — any CI failure reproduces locally
//! with one env var.

use nwo_ckpt::{BlobHealth, CacheDir, CheckpointWriter, ScrubOptions, ScrubReport, SectionWriter};
use nwo_verify::XorShift64;
use std::path::PathBuf;

fn seed_from_env(default: u64) -> u64 {
    match std::env::var("NWO_CHAOS_SEED") {
        Err(_) => default,
        Ok(text) => {
            let text = text.trim();
            match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).unwrap_or(default),
                None => text.parse().unwrap_or(default),
            }
        }
    }
}

fn banner(seed: u64) -> String {
    format!("chaos seed {seed:#018x} — rerun with NWO_CHAOS_SEED={seed:#x}")
}

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("nwo-scrub-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A healthy NWOC container blob with one section derived from `tag`.
fn healthy_blob(tag: u64) -> Vec<u8> {
    let mut section = SectionWriter::new();
    section.put_u64(tag);
    section.put_bytes(format!("result-{tag}").as_bytes());
    let mut w = CheckpointWriter::new();
    w.add_section("report", section.into_bytes());
    w.to_bytes()
}

/// The ways a blob can be torn, mirroring what a killed writer or a
/// decaying disk produces.
#[derive(Debug, Clone, Copy)]
enum Tear {
    /// Truncated mid-container (killed during a non-atomic write).
    Truncate,
    /// One payload byte flipped (silent media corruption).
    FlipPayloadByte,
    /// The magic stomped (a foreign file under a `.ckpt` name).
    StompMagic,
    /// Replaced entirely with garbage.
    Garbage,
}

const TEARS: [Tear; 4] = [
    Tear::Truncate,
    Tear::FlipPayloadByte,
    Tear::StompMagic,
    Tear::Garbage,
];

fn torn_blob(rng: &mut XorShift64, tear: Tear, tag: u64) -> Vec<u8> {
    let mut bytes = healthy_blob(tag);
    match tear {
        Tear::Truncate => {
            // Never truncate to the full length — that would be no tear.
            let keep = rng.below(bytes.len() as u64 - 1) as usize;
            bytes.truncate(keep);
        }
        Tear::FlipPayloadByte => {
            // Flip inside the section payload (past the fixed header
            // and section framing) so the CRC walk must catch it.
            let header = 4 + 2 + 8 + 4 + 2 + "report".len() + 8 + 4;
            let i = header + rng.below((bytes.len() - header) as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        Tear::StompMagic => {
            let i = rng.below(4) as usize;
            bytes[i] = !bytes[i];
        }
        Tear::Garbage => {
            let len = 1 + rng.below(200) as usize;
            bytes = (0..len).map(|_| rng.below(256) as u8).collect();
        }
    }
    bytes
}

fn scrub(cache: &CacheDir, options: &ScrubOptions) -> ScrubReport {
    cache
        .scrub(options)
        .expect("scrub walks without I/O errors")
}

#[test]
fn seeded_torn_blob_campaign_is_fully_detected_and_recovered() {
    let seed = seed_from_env(0x5C_12B);
    let banner = banner(seed);
    let mut rng = XorShift64::new(seed);
    let root = scratch("campaign");
    let cache = CacheDir::new(&root);

    // A population of healthy blobs...
    const HEALTHY: u64 = 6;
    for tag in 0..HEALTHY {
        cache
            .store(&format!("healthy/{tag}"), &healthy_blob(tag))
            .expect("store");
    }
    // ...plus a seeded storm of torn ones, written *directly* (the
    // whole point is to model bytes that bypassed the atomic path),
    // covering every tear class at least once.
    const TORN: u64 = 24;
    let mut torn_keys = Vec::new();
    for i in 0..TORN {
        let tear = TEARS[if i < TEARS.len() as u64 {
            i as usize // guarantee full class coverage
        } else {
            rng.below(TEARS.len() as u64) as usize
        }];
        let key = format!("torn/{i}");
        let path = cache.path_for(&key);
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
        std::fs::write(&path, torn_blob(&mut rng, tear, 1000 + i)).expect("write torn blob");
        torn_keys.push(key);
    }
    // And orphaned temp files from "killed" writers.
    for i in 0..3 {
        let tmp = root.join(format!("orphan-{i}.tmp.12345.{i}"));
        std::fs::write(&tmp, b"half-written").expect("write orphan");
    }

    // Scrub must detect 100% of the damage: every torn blob Corrupt,
    // every healthy blob Ok, every orphan reaped.
    let report = scrub(&cache, &ScrubOptions::default());
    assert_eq!(
        report.entries.len() as u64,
        HEALTHY + TORN,
        "every blob examined [{banner}]"
    );
    assert_eq!(
        report.ok() as u64,
        HEALTHY,
        "healthy blobs stay Ok [{banner}]"
    );
    assert_eq!(
        report.corrupt() as u64,
        TORN,
        "every torn blob detected: {:?} [{banner}]",
        report
            .entries
            .iter()
            .filter(|e| e.health == BlobHealth::Ok)
            .map(|e| &e.file)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        report.reaped_tmp.len(),
        3,
        "orphan temp files reaped [{banner}]"
    );
    assert!(
        report
            .entries
            .iter()
            .filter(|e| matches!(e.health, BlobHealth::Corrupt(_)))
            .all(|e| e.quarantined),
        "corrupt blobs quarantined [{banner}]"
    );

    // A second scrub over the quarantined cache is clean: the corrupt
    // blobs are out of service, the orphans gone.
    let second = scrub(&cache, &ScrubOptions::default());
    assert_eq!(second.corrupt(), 0, "[{banner}]");
    assert!(second.reaped_tmp.is_empty(), "[{banner}]");
    assert_eq!(second.prior_quarantined, TORN, "[{banner}]");
    assert!(second.clean(), "[{banner}]");

    // Recovery: quarantined keys read as cache misses, and a fresh
    // store round-trips — the runner's re-warm path in miniature.
    for (i, key) in torn_keys.iter().enumerate() {
        assert_eq!(
            cache.load(key).expect("load"),
            None,
            "quarantined blob must read as a miss [{banner}]"
        );
        let replacement = healthy_blob(5000 + i as u64);
        cache.store(key, &replacement).expect("re-store");
        assert_eq!(
            cache.load(key).expect("reload").as_deref(),
            Some(replacement.as_slice()),
            "[{banner}]"
        );
    }
    let healed = scrub(&cache, &ScrubOptions::default());
    assert_eq!(healed.ok() as u64, HEALTHY + TORN, "[{banner}]");
    assert_eq!(healed.corrupt(), 0, "[{banner}]");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn report_only_scrub_leaves_the_directory_untouched() {
    let seed = seed_from_env(0xD15C);
    let banner = banner(seed);
    let mut rng = XorShift64::new(seed);
    let root = scratch("report-only");
    let cache = CacheDir::new(&root);
    cache.store("good", &healthy_blob(1)).expect("store");
    let bad_path = cache.path_for("bad");
    std::fs::write(&bad_path, torn_blob(&mut rng, Tear::FlipPayloadByte, 2)).expect("write");
    let tmp = root.join("orphan.tmp.1.1");
    std::fs::write(&tmp, b"x").expect("write");

    let options = ScrubOptions {
        quarantine: false,
        reap_tmp: false,
    };
    let report = scrub(&cache, &options);
    assert_eq!(report.corrupt(), 1, "[{banner}]");
    assert_eq!(report.reaped_tmp.len(), 1, "still *reported* [{banner}]");
    assert!(report.entries.iter().all(|e| !e.quarantined), "[{banner}]");
    assert!(bad_path.exists(), "report-only keeps the blob [{banner}]");
    assert!(tmp.exists(), "report-only keeps the orphan [{banner}]");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stale_salt_blobs_are_reported_not_quarantined() {
    let root = scratch("stale");
    let cache = CacheDir::new(&root);
    let mut bytes = healthy_blob(1);
    bytes[6] ^= 0xFF; // flip a salt byte: structurally sound, foreign revision
    std::fs::create_dir_all(&root).expect("mkdir");
    std::fs::write(cache.path_for("stale"), &bytes).expect("write");
    let report = scrub(&cache, &ScrubOptions::default());
    assert_eq!(report.stale(), 1);
    assert_eq!(report.corrupt(), 0);
    assert!(!report.clean(), "stale entries keep the report non-clean");
    assert!(
        cache.path_for("stale").exists(),
        "stale blobs stay in place (this build simply regenerates them)"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_stores_to_one_key_never_publish_a_torn_blob() {
    let root = scratch("race");
    let cache = CacheDir::new(&root);
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let blob = healthy_blob(i);
                for _ in 0..50 {
                    cache.store("contended", &blob).expect("store");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("writer thread");
    }
    // Whatever won, the published blob is one writer's complete bytes
    // and the directory scrubs clean (no torn publish, no leftover
    // temp files from the unique-suffix scheme).
    let report = scrub(&cache, &ScrubOptions::default());
    assert_eq!(report.corrupt(), 0);
    assert!(report.reaped_tmp.is_empty());
    assert_eq!(report.ok(), 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_missing_cache_directory_scrubs_clean() {
    let root = scratch("absent");
    let cache = CacheDir::new(&root);
    let report = scrub(&cache, &ScrubOptions::default());
    assert!(report.clean());
    assert!(report.entries.is_empty());
}

#[test]
fn failure_output_embeds_the_reproduction_seed() {
    // The contract every chaos surface shares: the seed appears in the
    // message a failing assertion would print, so a CI failure is
    // reproducible with one env var.
    let seed = seed_from_env(0xABCD);
    let banner = banner(seed);
    assert!(banner.contains("NWO_CHAOS_SEED="), "{banner}");
    let result = std::panic::catch_unwind(|| {
        panic!("deliberate failure [{banner}]");
    });
    let panic = result.expect_err("the assertion fails");
    let text = panic.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        text.contains("NWO_CHAOS_SEED="),
        "panic text must carry the seed: {text}"
    );
}
