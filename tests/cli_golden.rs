//! Golden-output tests for the `frost` CLI's set-comparison commands.
//!
//! `compare` and `venn` sit on top of the pair-set engines, so an
//! engine swap (packed → chunked → roaring) that silently changed
//! region contents or ordering would surface here as a table diff —
//! the byte-for-byte stdout of both commands is pinned against small,
//! fully deterministic fixtures, one of them built around a hub record.

use std::path::PathBuf;
use std::process::Command;

/// Writes the shared fixture into a unique temp directory: 8 records,
/// a 4-pair gold standard and two experiments of different quality.
///
/// With record ids a..h ↦ 0..7 and set order [e1, e2, <gold>], the
/// pair memberships are:
///   {a,b} → e1 ∩ e2 ∩ gold     {c,d} → e1 ∩ gold
///   {a,c} → e1 only            {b,c} → e2 only
///   {e,f}, {g,h} → gold only
fn fixture(tag: &str) -> (PathBuf, String, String, String, String) {
    let dir = std::env::temp_dir().join(format!("frost-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ds = dir.join("people.csv");
    let gold = dir.join("gold.csv");
    let e1 = dir.join("e1.csv");
    let e2 = dir.join("e2.csv");
    std::fs::write(
        &ds,
        "id,name\na,Ann\nb,Anne\nc,Bob\nd,Bobby\ne,Carl\nf,Carlo\ng,Dora\nh,Dora B\n",
    )
    .unwrap();
    std::fs::write(&gold, "id1,id2\na,b\nc,d\ne,f\ng,h\n").unwrap();
    std::fs::write(&e1, "id1,id2,similarity\na,b,0.95\nc,d,0.9\na,c,0.4\n").unwrap();
    std::fs::write(&e2, "id1,id2,similarity\na,b,0.9\nb,c,0.5\n").unwrap();
    (
        dir.clone(),
        ds.to_string_lossy().into_owned(),
        gold.to_string_lossy().into_owned(),
        e1.to_string_lossy().into_owned(),
        e2.to_string_lossy().into_owned(),
    )
}

fn run_frost(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_frost"))
        .args(args)
        .output()
        .expect("frost binary runs");
    (
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
        out.status.success(),
    )
}

/// `compare` lists every non-empty Venn region in ascending membership
/// order with file-name labels.
#[test]
fn compare_golden_output() {
    let (dir, ds, gold, e1, e2) = fixture("compare");
    let (stdout, stderr, ok) = run_frost(&["compare", &ds, &gold, &e1, &e2]);
    assert!(ok, "compare failed: {stderr}");
    let expected = concat!(
        "      1 pairs exactly in: e1.csv\n",
        "      1 pairs exactly in: e2.csv\n",
        "      2 pairs exactly in: <gold>\n",
        "      1 pairs exactly in: e1.csv ∩ <gold>\n",
        "      1 pairs exactly in: e1.csv ∩ e2.csv ∩ <gold>\n",
    );
    assert_eq!(stdout, expected);
    let _ = std::fs::remove_dir_all(dir);
}

/// `venn` renders the aligned region table, largest region first.
#[test]
fn venn_golden_output() {
    let (dir, ds, gold, e1, e2) = fixture("venn");
    let (stdout, stderr, ok) = run_frost(&["venn", &ds, &gold, &e1, &e2]);
    assert!(ok, "venn failed: {stderr}");
    let expected = concat!(
        "       2 pairs  exactly in <gold>\n",
        "       1 pairs  exactly in e1.csv\n",
        "       1 pairs  exactly in e2.csv\n",
        "       1 pairs  exactly in e1.csv ∩ <gold>\n",
        "       1 pairs  exactly in e1.csv ∩ e2.csv ∩ <gold>\n",
    );
    assert_eq!(stdout, expected);
    let _ = std::fs::remove_dir_all(dir);
}

/// A single-experiment `venn` against the gold standard — the smallest
/// real use; also pins the two-set rendering.
#[test]
fn venn_single_experiment_golden_output() {
    let (dir, ds, gold, e1, _) = fixture("venn-single");
    let (stdout, stderr, ok) = run_frost(&["venn", &ds, &gold, &e1]);
    assert!(ok, "venn failed: {stderr}");
    let expected = concat!(
        "       2 pairs  exactly in <gold>\n",
        "       2 pairs  exactly in e1.csv ∩ <gold>\n",
        "       1 pairs  exactly in e1.csv\n",
    );
    assert_eq!(stdout, expected);
    let _ = std::fs::remove_dir_all(dir);
}

/// Writes a fixture of 6 000 records `r0..r5999` whose first
/// experiment is a hub: `r0` matched to 4 500 others, so its pairs fill
/// one 2¹⁶-value chunk far beyond the cost model's dense occupancy.
///
///   gold:   `(r2i, r2i+1)` for every i (3 000 pairs)
///   hub:    `r0` with `r1..=r4500`
///   mixed:  `r0` with `r3000..=r5999`, plus `(r2i, r2i+1)` for
///           i in 1000..2000
///   sparse: `(ri, ri+3)` for even i
fn hub_fixture(tag: &str) -> (PathBuf, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("frost-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let n = 6_000u32;
    let mut files = vec![
        ("people.csv", "id,name\n".to_string()),
        ("gold.csv", "id1,id2\n".to_string()),
        ("hub.csv", "id1,id2,similarity\n".to_string()),
        ("mixed.csv", "id1,id2,similarity\n".to_string()),
        ("sparse.csv", "id1,id2,similarity\n".to_string()),
    ];
    for i in 0..n {
        files[0].1 += &format!("r{i},name {i}\n");
    }
    for i in 0..n / 2 {
        files[1].1 += &format!("r{},r{}\n", 2 * i, 2 * i + 1);
    }
    for i in 1..=4_500 {
        files[2].1 += &format!("r0,r{i},0.9\n");
    }
    for i in 3_000..n {
        files[3].1 += &format!("r0,r{i},0.8\n");
    }
    for i in 1_000..2_000 {
        files[3].1 += &format!("r{},r{},0.7\n", 2 * i, 2 * i + 1);
    }
    for i in (0..n - 3).step_by(2) {
        files[4].1 += &format!("r{i},r{},0.6\n", i + 3);
    }
    let paths = files
        .into_iter()
        .map(|(name, body)| {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            path.to_string_lossy().into_owned()
        })
        .collect();
    (dir, paths)
}

/// The hub fixture's first experiment is the shape the pair-set cost
/// model calls dense (chunked), unlike the small fixture above, so the
/// goldens below pin the CLI's counts on a hub as well.
#[test]
fn hub_fixture_is_dense() {
    use frost::core::dataset::{choose_pair_engine, PairEngine, RecordPair, RoaringPairSet};
    let hub: RoaringPairSet = (1..=4_500u32)
        .map(|hi| RecordPair::from((0u32, hi)))
        .collect();
    assert_eq!(
        choose_pair_engine(hub.len(), hub.chunk_count()),
        PairEngine::Chunked
    );
}

/// `compare` on the hub fixture: every region in ascending membership
/// order.
#[test]
fn compare_hub_golden_output() {
    let (dir, paths) = hub_fixture("compare-hub");
    let args: Vec<&str> = std::iter::once("compare")
        .chain(paths.iter().map(String::as_str))
        .collect();
    let (stdout, stderr, ok) = run_frost(&args);
    assert!(ok, "compare failed: {stderr}");
    let expected = concat!(
        "   2997 pairs exactly in: hub.csv\n",
        "   1499 pairs exactly in: mixed.csv\n",
        "   1501 pairs exactly in: hub.csv ∩ mixed.csv\n",
        "   2998 pairs exactly in: sparse.csv\n",
        "      1 pairs exactly in: hub.csv ∩ sparse.csv\n",
        "   1999 pairs exactly in: <gold>\n",
        "      1 pairs exactly in: hub.csv ∩ <gold>\n",
        "   1000 pairs exactly in: mixed.csv ∩ <gold>\n",
    );
    assert_eq!(stdout, expected);
    let _ = std::fs::remove_dir_all(dir);
}

/// `venn` on the hub fixture: largest region first, and regions of
/// equal size keep their membership order.
#[test]
fn venn_hub_golden_output() {
    let (dir, paths) = hub_fixture("venn-hub");
    let args: Vec<&str> = std::iter::once("venn")
        .chain(paths.iter().map(String::as_str))
        .collect();
    let (stdout, stderr, ok) = run_frost(&args);
    assert!(ok, "venn failed: {stderr}");
    let expected = concat!(
        "    2998 pairs  exactly in sparse.csv\n",
        "    2997 pairs  exactly in hub.csv\n",
        "    1999 pairs  exactly in <gold>\n",
        "    1501 pairs  exactly in hub.csv ∩ mixed.csv\n",
        "    1499 pairs  exactly in mixed.csv\n",
        "    1000 pairs  exactly in mixed.csv ∩ <gold>\n",
        "       1 pairs  exactly in hub.csv ∩ sparse.csv\n",
        "       1 pairs  exactly in hub.csv ∩ <gold>\n",
    );
    assert_eq!(stdout, expected);
    let _ = std::fs::remove_dir_all(dir);
}

/// Both commands exit 1 with a one-line message on unknown record ids
/// (no partial table is printed).
#[test]
fn venn_and_compare_report_bad_input() {
    let (dir, ds, _, e1, _) = fixture("bad");
    let bad_gold = dir.join("bad_gold.csv");
    std::fs::write(&bad_gold, "id1,id2\na,zzz\n").unwrap();
    let bad = bad_gold.to_string_lossy().into_owned();
    for cmd in ["compare", "venn"] {
        let (stdout, stderr, ok) = run_frost(&[cmd, &ds, &bad, &e1]);
        assert!(!ok, "{cmd} must fail");
        assert!(stdout.is_empty(), "{cmd} printed a partial table");
        assert!(stderr.contains("unknown record"), "{cmd}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A dataset file that lists a record id twice is reported, not a
/// panic: exit 1 with a one-line message.
#[test]
fn profile_reports_a_repeated_record_id() {
    let dir = std::env::temp_dir().join(format!("frost-golden-dup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ds = dir.join("dup.csv");
    std::fs::write(&ds, "id,name\nr1,a\nr1,b\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_frost"))
        .args(["profile", &ds.to_string_lossy()])
        .output()
        .expect("frost binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8(out.stderr).unwrap().trim_end(),
        "duplicate record id \"r1\""
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A dataset header that names an attribute twice is reported, not a
/// panic: exit 1 with a one-line message naming the attribute.
#[test]
fn profile_reports_a_repeated_attribute_name() {
    let dir = std::env::temp_dir().join(format!("frost-golden-dupattr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ds = dir.join("dup.csv");
    std::fs::write(&ds, "id,name,name\nr1,a,b\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_frost"))
        .args(["profile", &ds.to_string_lossy()])
        .output()
        .expect("frost binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8(out.stderr).unwrap().trim_end(),
        "duplicate attribute name \"name\""
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// A comparison takes at most 32 sets (the width of the region mask),
/// and the gold standard is one of them: 31 experiments render, 32
/// exit 1 with a one-line message instead of panicking.
#[test]
fn venn_and_compare_cap_the_set_count() {
    let (dir, ds, gold, e1, _) = fixture("wide");
    for cmd in ["compare", "venn"] {
        let mut args = vec![cmd, &ds, &gold];
        args.extend(std::iter::repeat_n(e1.as_str(), 31));
        let (_, stderr, ok) = run_frost(&args);
        assert!(ok, "{cmd} with 31 experiments: {stderr}");
        args.push(&e1);
        let (stdout, stderr, ok) = run_frost(&args);
        assert!(!ok, "{cmd} with 32 experiments must fail");
        assert!(stdout.is_empty(), "{cmd} printed a partial table");
        assert_eq!(
            stderr.trim_end(),
            "at most 31 experiments can be compared (32 sets with the gold standard)",
            "{cmd}"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
