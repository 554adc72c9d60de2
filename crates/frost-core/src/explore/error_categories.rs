//! Error categorization (the paper's §7 outlook: "The ability to
//! categorize the errors of a matching solution helps to more easily
//! find structural deficiencies. For example, a matching solution could
//! be especially weak in the handling of typos.").
//!
//! Each misclassified pair is assigned the most specific applicable
//! category by inspecting the two records' attribute values; a
//! solution's *error profile* is the category histogram over all its
//! errors.
//!
//! [`ErrorProfile::from_judged`] categorizes every pair in one
//! [`Scratch`]: two edit-distance rows, and two token lists that are
//! sorted and deduplicated in place for the set tests. The typo test
//! fills only the diagonal band of the edit matrix that a distance of
//! 2 can reach, on bytes when both values are ASCII and on `char`s
//! otherwise; two printable-ASCII words skip tokenization altogether.
//! Once the buffers have grown to the longest value, no pair allocates.

use super::JudgedPair;
use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Structural categories of matching errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ErrorCategory {
    /// At least one attribute value is missing on one side — the
    /// solution likely mishandles nulls (ties into nullRatio, §4.5.2).
    MissingValue,
    /// Some attribute pair differs only by a small edit distance —
    /// a typo the solution failed to bridge (false negative) or was
    /// fooled by (false positive).
    Typo,
    /// Some attribute pair contains the same tokens in different order.
    TokenReorder,
    /// Some attribute pair differs by an abbreviation (one token is a
    /// 1-character-plus-dot, or prefix, form of the other).
    Abbreviation,
    /// Some attribute pair shares a strict subset of tokens (partial
    /// overlap — extra or dropped tokens).
    PartialTokens,
    /// None of the structural patterns apply: the values genuinely
    /// conflict (or agree) — a semantic decision-model error.
    ValueConflict,
}

impl ErrorCategory {
    /// All categories in match-priority order (most specific first).
    pub const ALL: [ErrorCategory; 6] = [
        ErrorCategory::MissingValue,
        ErrorCategory::Abbreviation,
        ErrorCategory::TokenReorder,
        ErrorCategory::Typo,
        ErrorCategory::PartialTokens,
        ErrorCategory::ValueConflict,
    ];
}

impl std::fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCategory::MissingValue => "missing value",
            ErrorCategory::Typo => "typo",
            ErrorCategory::TokenReorder => "token reorder",
            ErrorCategory::Abbreviation => "abbreviation",
            ErrorCategory::PartialTokens => "partial tokens",
            ErrorCategory::ValueConflict => "value conflict",
        };
        f.pad(s)
    }
}

/// The largest edit distance that still counts as a typo.
const TYPO_DISTANCE: usize = 2;

/// The buffers one [`categorize`] call works in. [`ErrorProfile::from_judged`]
/// makes one per request and reuses it for every pair and attribute, so
/// categorizing allocates only while the buffers grow to the longest
/// value seen.
#[derive(Debug, Default)]
pub struct Scratch<'a> {
    /// The two Levenshtein rows.
    prev: Vec<usize>,
    cur: Vec<usize>,
    /// The characters of two values that are not both ASCII.
    chars: (Vec<char>, Vec<char>),
    /// The whitespace-separated tokens of the two values.
    tokens: (Vec<&'a str>, Vec<&'a str>),
}

/// Whether the Levenshtein distance of `a` and `b` is at most `cap`.
///
/// A common prefix and suffix do not change the distance, so they are
/// cut off first. Then only the diagonal band `|i − j| ≤ cap` of the
/// edit matrix is filled: any cell outside it is more than `cap` edits
/// away. Values are clamped at `cap + 1`, and a row whose band is all
/// above `cap` ends the scan, since no path to the last cell can get
/// back under.
fn within_edit_distance<T: PartialEq>(
    a: &[T],
    b: &[T],
    cap: usize,
    prev: &mut Vec<usize>,
    cur: &mut Vec<usize>,
) -> bool {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    if a.len().abs_diff(b.len()) > cap {
        return false;
    }
    // The distance is at most the longer length.
    if a.len().max(b.len()) <= cap {
        return true;
    }
    let over = cap + 1;
    prev.clear();
    prev.extend((0..=b.len()).map(|j| j.min(over)));
    cur.clear();
    cur.resize(b.len() + 1, over);
    for (i, ca) in (1usize..).zip(a) {
        let (lo, hi) = (i.saturating_sub(cap), (i + cap).min(b.len()));
        // The cell left of the band, and row `i`'s first column.
        cur[lo.saturating_sub(1)] = if lo == 0 { i.min(over) } else { over };
        let mut row_min = if lo == 0 { cur[0] } else { over };
        for j in lo.max(1)..=hi {
            let sub = prev[j - 1] + usize::from(*ca != b[j - 1]);
            let cell = sub.min(prev[j] + 1).min(cur[j - 1] + 1).min(over);
            cur[j] = cell;
            row_min = row_min.min(cell);
        }
        // The cell right of the band, read by the next row.
        if hi < b.len() {
            cur[hi + 1] = over;
        }
        if row_min > cap {
            return false;
        }
        std::mem::swap(prev, cur);
    }
    prev[b.len()] <= cap
}

/// Whether `x` and `y` are at most [`TYPO_DISTANCE`] edits apart,
/// comparing bytes when both are ASCII and characters otherwise.
fn is_typo(x: &str, y: &str, scratch: &mut Scratch) -> bool {
    let Scratch {
        prev, cur, chars, ..
    } = scratch;
    if x.is_ascii() && y.is_ascii() {
        return within_edit_distance(x.as_bytes(), y.as_bytes(), TYPO_DISTANCE, prev, cur);
    }
    chars.0.clear();
    chars.0.extend(x.chars());
    chars.1.clear();
    chars.1.extend(y.chars());
    within_edit_distance(&chars.0, &chars.1, TYPO_DISTANCE, prev, cur)
}

/// Whether `s` is printable ASCII without whitespace: one token, or
/// none when empty.
fn is_word(s: &str) -> bool {
    s.bytes().all(|b| b.is_ascii_graphic())
}

fn is_abbreviation(a: &str, b: &str) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() || long.is_empty() || short == long {
        return false;
    }
    // "a." or "a" abbreviating "anna"; or a strict prefix of ≥1 char.
    let stem = short.strip_suffix('.').unwrap_or(short);
    !stem.is_empty() && stem.len() < long.len() && long.starts_with(stem) && stem.len() <= 3
}

/// The same number of tokens, position by position equal or an
/// abbreviation, and at least one abbreviation.
fn token_abbreviation(ta: &[&str], tb: &[&str]) -> bool {
    ta.len() == tb.len()
        && ta
            .iter()
            .zip(tb)
            .all(|(x, y)| x == y || is_abbreviation(x, y))
        && ta.iter().zip(tb).any(|(x, y)| x != y)
}

/// At least two tokens, not in the same order, but the same multiset.
/// Sorts both token lists in place.
fn same_tokens_reordered(ta: &mut [&str], tb: &mut [&str]) -> bool {
    if ta == tb || ta.len() < 2 {
        return false;
    }
    ta.sort_unstable();
    tb.sort_unstable();
    ta == tb
}

/// The distinct tokens of both values overlap, but neither set holds
/// the other's every token. Sorts and deduplicates both lists in place.
fn partial_token_overlap<'a>(ta: &mut Vec<&'a str>, tb: &mut Vec<&'a str>) -> bool {
    for t in [&mut *ta, &mut *tb] {
        t.sort_unstable();
        t.dedup();
    }
    if ta.is_empty() || tb.is_empty() || ta == tb {
        return false;
    }
    // Both lists are sorted sets: count the intersection by a merge.
    let (mut i, mut j, mut inter) = (0, 0, 0);
    while i < ta.len() && j < tb.len() {
        match ta[i].cmp(tb[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter > 0 && (inter < ta.len() || inter < tb.len())
}

/// Categorizes one misclassified pair by scanning its attribute pairs
/// for the most specific structural pattern, in `scratch`.
pub fn categorize<'a>(
    ds: &'a Dataset,
    pair: crate::dataset::RecordPair,
    scratch: &mut Scratch<'a>,
) -> ErrorCategory {
    let a = ds.record(pair.lo());
    let b = ds.record(pair.hi());
    let mut seen_typo = false;
    let mut seen_reorder = false;
    let mut seen_abbrev = false;
    let mut seen_partial = false;
    for col in 0..ds.schema().len() {
        match (a.value(col), b.value(col)) {
            (None, Some(_)) | (Some(_), None) => return ErrorCategory::MissingValue,
            (Some(x), Some(y)) if x != y && is_word(x) && is_word(y) => {
                // At most one token each, and distinct: neither a
                // reorder nor a partial overlap, and the abbreviation
                // test is the tokens' own.
                if is_abbreviation(x, y) {
                    seen_abbrev = true;
                } else if is_typo(x, y, scratch) {
                    seen_typo = true;
                }
            }
            (Some(x), Some(y)) if x != y => {
                let (ta, tb) = &mut scratch.tokens;
                ta.clear();
                ta.extend(x.split_whitespace());
                tb.clear();
                tb.extend(y.split_whitespace());
                if token_abbreviation(ta, tb) {
                    seen_abbrev = true;
                } else if same_tokens_reordered(ta, tb) {
                    seen_reorder = true;
                } else if is_typo(x, y, scratch) {
                    seen_typo = true;
                } else if partial_token_overlap(&mut scratch.tokens.0, &mut scratch.tokens.1) {
                    seen_partial = true;
                }
            }
            _ => {}
        }
    }
    if seen_abbrev {
        ErrorCategory::Abbreviation
    } else if seen_reorder {
        ErrorCategory::TokenReorder
    } else if seen_typo {
        ErrorCategory::Typo
    } else if seen_partial {
        ErrorCategory::PartialTokens
    } else {
        ErrorCategory::ValueConflict
    }
}

/// The categorizer that [`categorize`] replaced — a `Vec<char>` per
/// Levenshtein call and a `HashSet` or `Vec` per token test — kept as
/// the reference of its differential test.
#[cfg(test)]
pub(crate) mod reference {
    use super::{is_abbreviation, ErrorCategory};
    use crate::dataset::Dataset;

    /// Levenshtein distance, capped at `cap + 1` (early exit keeps the
    /// categorizer cheap on long values).
    pub(super) fn capped_levenshtein(a: &str, b: &str, cap: usize) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.len().abs_diff(b.len()) > cap {
            return cap + 1;
        }
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        let mut cur = vec![0usize; b.len() + 1];
        for (i, &ca) in a.iter().enumerate() {
            cur[0] = i + 1;
            let mut row_min = cur[0];
            for (j, &cb) in b.iter().enumerate() {
                let sub = prev[j] + usize::from(ca != cb);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
                row_min = row_min.min(cur[j + 1]);
            }
            if row_min > cap {
                return cap + 1;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[b.len()]
    }

    fn same_tokens_reordered(a: &str, b: &str) -> bool {
        let mut ta: Vec<&str> = a.split_whitespace().collect();
        let mut tb: Vec<&str> = b.split_whitespace().collect();
        if ta == tb || ta.len() < 2 {
            return false;
        }
        ta.sort_unstable();
        tb.sort_unstable();
        ta == tb
    }

    fn token_abbreviation(a: &str, b: &str) -> bool {
        let ta: Vec<&str> = a.split_whitespace().collect();
        let tb: Vec<&str> = b.split_whitespace().collect();
        if ta.len() != tb.len() {
            return false;
        }
        let mut abbreviated = false;
        for (x, y) in ta.iter().zip(&tb) {
            if x == y {
                continue;
            }
            if is_abbreviation(x, y) {
                abbreviated = true;
            } else {
                return false;
            }
        }
        abbreviated
    }

    fn partial_token_overlap(a: &str, b: &str) -> bool {
        let ta: std::collections::HashSet<&str> = a.split_whitespace().collect();
        let tb: std::collections::HashSet<&str> = b.split_whitespace().collect();
        if ta.is_empty() || tb.is_empty() || ta == tb {
            return false;
        }
        let inter = ta.intersection(&tb).count();
        inter > 0 && (inter < ta.len() || inter < tb.len())
    }

    /// Categorizes one misclassified pair by scanning its attribute pairs
    /// for the most specific structural pattern.
    pub(crate) fn categorize(ds: &Dataset, pair: crate::dataset::RecordPair) -> ErrorCategory {
        let a = ds.record(pair.lo());
        let b = ds.record(pair.hi());
        let mut seen_typo = false;
        let mut seen_reorder = false;
        let mut seen_abbrev = false;
        let mut seen_partial = false;
        for col in 0..ds.schema().len() {
            match (a.value(col), b.value(col)) {
                (None, Some(_)) | (Some(_), None) => return ErrorCategory::MissingValue,
                (Some(x), Some(y)) if x != y => {
                    if token_abbreviation(x, y) {
                        seen_abbrev = true;
                    } else if same_tokens_reordered(x, y) {
                        seen_reorder = true;
                    } else if capped_levenshtein(x, y, 2) <= 2 {
                        seen_typo = true;
                    } else if partial_token_overlap(x, y) {
                        seen_partial = true;
                    }
                }
                _ => {}
            }
        }
        if seen_abbrev {
            ErrorCategory::Abbreviation
        } else if seen_reorder {
            ErrorCategory::TokenReorder
        } else if seen_typo {
            ErrorCategory::Typo
        } else if seen_partial {
            ErrorCategory::PartialTokens
        } else {
            ErrorCategory::ValueConflict
        }
    }
}

/// The error profile of a judged result set: category → count over all
/// misclassified pairs, split by false positives and false negatives.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorProfile {
    /// Category counts among false positives.
    pub false_positives: HashMap<ErrorCategory, usize>,
    /// Category counts among false negatives.
    pub false_negatives: HashMap<ErrorCategory, usize>,
}

impl ErrorProfile {
    /// Builds the profile from judged pairs, categorizing them all in
    /// one [`Scratch`].
    pub fn from_judged(ds: &Dataset, judged: &[JudgedPair]) -> Self {
        let mut scratch = Scratch::default();
        // [false positives, false negatives] × category, by `ALL` index.
        let mut counts = [[0usize; ErrorCategory::ALL.len()]; 2];
        for p in judged.iter().filter(|p| !p.correct()) {
            let cat = categorize(ds, p.pair, &mut scratch);
            let index = ErrorCategory::ALL.iter().position(|&c| c == cat);
            counts[usize::from(!p.predicted_match)][index.expect("every category is in ALL")] += 1;
        }
        let bucket = |counts: [usize; 6]| {
            ErrorCategory::ALL
                .into_iter()
                .zip(counts)
                .filter(|&(_, n)| n > 0)
                .collect()
        };
        ErrorProfile {
            false_positives: bucket(counts[0]),
            false_negatives: bucket(counts[1]),
        }
    }

    /// Total errors in a category across both buckets.
    pub fn total(&self, cat: ErrorCategory) -> usize {
        self.false_positives.get(&cat).copied().unwrap_or(0)
            + self.false_negatives.get(&cat).copied().unwrap_or(0)
    }

    /// The dominant error category, if any errors exist.
    pub fn dominant(&self) -> Option<ErrorCategory> {
        ErrorCategory::ALL
            .into_iter()
            .max_by_key(|&c| self.total(c))
            .filter(|&c| self.total(c) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{RecordPair, Schema};
    use proptest::prelude::*;

    fn ds(rows: &[[Option<&str>; 2]]) -> Dataset {
        let mut d = Dataset::new("d", Schema::new(["name", "year"]));
        for (i, row) in rows.iter().enumerate() {
            d.push_record_opt(
                format!("r{i}"),
                row.iter().map(|v| v.map(str::to_string)).collect(),
            );
        }
        d
    }

    fn pair(a: u32, b: u32) -> RecordPair {
        RecordPair::from((a, b))
    }

    fn category(d: &Dataset, pair: RecordPair) -> ErrorCategory {
        let want = reference::categorize(d, pair);
        let got = categorize(d, pair, &mut Scratch::default());
        assert_eq!(got, want, "{pair:?}");
        got
    }

    #[test]
    fn missing_value_wins() {
        let d = ds(&[[Some("ann"), None], [Some("anne"), Some("1999")]]);
        assert_eq!(category(&d, pair(0, 1)), ErrorCategory::MissingValue);
    }

    #[test]
    fn typo_detection() {
        let d = ds(&[
            [Some("anna schmidt"), Some("1999")],
            [Some("anna schmitd"), Some("1999")],
        ]);
        assert_eq!(category(&d, pair(0, 1)), ErrorCategory::Typo);
    }

    #[test]
    fn token_reorder_detection() {
        let d = ds(&[
            [Some("schmidt anna"), Some("1999")],
            [Some("anna schmidt"), Some("1999")],
        ]);
        assert_eq!(category(&d, pair(0, 1)), ErrorCategory::TokenReorder);
    }

    #[test]
    fn abbreviation_detection() {
        let d = ds(&[
            [Some("a. schmidt"), Some("1999")],
            [Some("anna schmidt"), Some("1999")],
        ]);
        assert_eq!(category(&d, pair(0, 1)), ErrorCategory::Abbreviation);
        assert!(is_abbreviation("a.", "anna"));
        assert!(is_abbreviation("an", "anna"));
        assert!(!is_abbreviation("anna", "anna"));
        assert!(!is_abbreviation("bert", "anna"));
    }

    #[test]
    fn partial_tokens_and_conflict() {
        let partial = ds(&[
            [Some("anna maria schmidt"), Some("1999")],
            [Some("anna schmidt extra thing"), Some("1999")],
        ]);
        assert_eq!(category(&partial, pair(0, 1)), ErrorCategory::PartialTokens);
        let conflict = ds(&[
            [Some("anna schmidt"), Some("1999")],
            [Some("totally different"), Some("1999")],
        ]);
        assert_eq!(
            category(&conflict, pair(0, 1)),
            ErrorCategory::ValueConflict
        );
        // Identical records (an FP on exact duplicates) → ValueConflict.
        let same = ds(&[[Some("x"), Some("1")], [Some("x"), Some("1")]]);
        assert_eq!(category(&same, pair(0, 1)), ErrorCategory::ValueConflict);
    }

    #[test]
    fn capped_levenshtein_early_exit() {
        use reference::capped_levenshtein;
        assert_eq!(capped_levenshtein("abc", "abd", 2), 1);
        assert!(capped_levenshtein("abcdefgh", "zzzzzzzz", 2) > 2);
        assert!(capped_levenshtein("short", "muchlongerstring", 2) > 2);
        let within = |a: &str, b: &str, cap| {
            within_edit_distance(a.as_bytes(), b.as_bytes(), cap, &mut vec![], &mut vec![])
        };
        assert!(within("abc", "abd", 1) && !within("abc", "abd", 0));
        assert!(within("abc", "", 3) && !within("abc", "", 2));
        assert!(within("kitten", "sitting", 3) && !within("kitten", "sitting", 2));
        assert!(!within("abcdefgh", "zzzzzzzz", 2));
        assert!(!within("short", "muchlongerstring", 2));
    }

    #[test]
    fn profile_histogram() {
        let d = ds(&[
            [Some("anna schmidt"), Some("1999")], // 0
            [Some("anna schmitd"), Some("1999")], // 1: typo of 0
            [Some("bert weber"), None],           // 2: missing year
            [Some("bert weber"), Some("2001")],   // 3
        ]);
        let judged = vec![
            JudgedPair {
                pair: pair(0, 1),
                similarity: Some(0.6),
                predicted_match: false,
                actual_match: true, // FN via typo
            },
            JudgedPair {
                pair: pair(2, 3),
                similarity: Some(0.9),
                predicted_match: true,
                actual_match: false, // FP via missing value
            },
            JudgedPair {
                pair: pair(0, 3),
                similarity: Some(0.2),
                predicted_match: false,
                actual_match: false, // correct; ignored
            },
        ];
        let profile = ErrorProfile::from_judged(&d, &judged);
        assert_eq!(profile.false_negatives[&ErrorCategory::Typo], 1);
        assert_eq!(profile.false_positives[&ErrorCategory::MissingValue], 1);
        assert_eq!(profile.total(ErrorCategory::Typo), 1);
        assert!(profile.dominant().is_some());
        let empty = ErrorProfile::from_judged(&d, &[]);
        assert_eq!(empty.dominant(), None);
    }

    /// Tokens of attribute values: words and their typos, prefixes and
    /// `.`-abbreviations, multi-byte letters, and the empty string.
    const PIECES: [&str; 20] = [
        "anna", "anne", "ann", "a.", "an", "schmidt", "schmitd", "s.", "bert", "x", "é", "ß",
        "日本", "日", "naïve", "naive", "", "anna.", "1999", "199",
    ];

    /// Whitespace runs between tokens.
    const GAPS: [&str; 4] = [" ", "  ", "\t", " \n "];

    /// One record's value of an attribute, derived from the attribute's
    /// `base` tokens by `op` at token or character `k`: missing, as is,
    /// reordered, abbreviated, cut to a prefix, with one character
    /// replaced, with a token dropped or added, or unrelated.
    fn derive(base: &[&str], op: usize, k: usize, gap: &str) -> Option<String> {
        let mut tokens: Vec<String> = base.iter().map(|t| t.to_string()).collect();
        let at = k % tokens.len().max(1);
        match op {
            0 => return None,
            2 => tokens.reverse(),
            3 if !tokens.is_empty() => tokens.rotate_left(1),
            4 if !tokens.is_empty() => {
                let head = tokens[at]
                    .chars()
                    .next()
                    .map(String::from)
                    .unwrap_or_default();
                tokens[at] = head + ".";
            }
            5 if !tokens.is_empty() => tokens[at] = tokens[at].chars().take(1 + k % 3).collect(),
            6 if !tokens.is_empty() => {
                let chars: Vec<char> = tokens[at].chars().collect();
                let c = k % (chars.len() + 1);
                tokens[at] = chars[..c]
                    .iter()
                    .chain(['z'].iter())
                    .chain(chars.get(c + 1..).unwrap_or(&[]))
                    .collect();
            }
            7 if !tokens.is_empty() => {
                tokens.remove(at);
            }
            8 => tokens.insert(at, PIECES[k % PIECES.len()].to_string()),
            9 => {
                tokens = vec![
                    PIECES[k % PIECES.len()].to_string(),
                    PIECES[(k / 7) % PIECES.len()].to_string(),
                ]
            }
            _ => {}
        }
        Some(tokens.join(gap))
    }

    /// Per attribute: its base tokens, and per record an (op, k, gap).
    type Table = Vec<(Vec<usize>, Vec<(usize, usize, usize)>)>;

    fn table() -> impl Strategy<Value = Table> {
        let record = (0usize..10, 0usize..64, 0..GAPS.len());
        let column = (
            prop::collection::vec(0..PIECES.len(), 0..5),
            prop::collection::vec(record, 4),
        );
        prop::collection::vec(column, 3)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The scratch categorizer returns the reference's category,
        /// also when one scratch serves many pairs in a row.
        #[test]
        fn categorize_agrees_with_reference(table in table()) {
            let mut d = Dataset::new("d", Schema::new(["a", "b", "c"]));
            for r in 0..4 {
                let values = table
                    .iter()
                    .map(|(base, records)| {
                        let base: Vec<&str> = base.iter().map(|&i| PIECES[i]).collect();
                        let (op, k, gap) = records[r];
                        derive(&base, op, k, GAPS[gap])
                    })
                    .collect();
                d.push_record_opt(format!("r{r}"), values);
            }
            let mut scratch = Scratch::default();
            for (a, b) in (0..4).flat_map(|a| (a + 1..4).map(move |b| (a, b))) {
                let p = pair(a, b);
                prop_assert_eq!(categorize(&d, p, &mut scratch), reference::categorize(&d, p));
            }
        }
    }
}
