//! Adversarial-input properties of the `.glp` parser: arbitrary bytes
//! and mutated-but-plausible records must never panic, and every failure
//! must carry the line that it points back to in the input.

use lsopc_geometry::parse_glp;
use proptest::prelude::*;

/// A pool of adversarial integer tokens: boundary values, overflow
/// candidates, and values just past the parser's ±2³⁰ coordinate bound.
fn token(ix: u8, raw: i64) -> String {
    match ix % 8 {
        0 => raw.to_string(),
        1 => i64::MAX.to_string(),
        2 => i64::MIN.to_string(),
        3 => "99999999999999999999".to_string(), // past i64
        4 => ((1i64 << 30) + 1).to_string(),     // past MAX_COORD
        5 => "1e9".to_string(),                  // not an integer
        6 => ";".to_string(),
        _ => "-".to_string(),
    }
}

fn glp_line(kind: u8, tokens: &[(u8, i64)]) -> String {
    let keyword = match kind % 6 {
        0 => "RECT",
        1 => "PGON",
        2 => "CELL",
        3 => "rect",
        4 => "",
        _ => "NOISE",
    };
    let mut line = keyword.to_string();
    for &(ix, raw) in tokens {
        line.push(' ');
        line.push_str(&token(ix, raw));
    }
    if kind.is_multiple_of(2) {
        line.push_str(" ;");
    }
    line
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes, decoded lossily, never panic `parse_glp`; any
    /// error names a line inside the input.
    #[test]
    fn glp_survives_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse_glp(&text) {
            let nlines = text.lines().count().max(1);
            prop_assert!(e.line() >= 1 && e.line() <= nlines,
                "line {} outside input ({} lines)", e.line(), nlines);
        }
    }

    /// Structured-but-hostile records (overflowing coordinates, odd
    /// arity, stray separators) never panic; errors stay line-addressed.
    #[test]
    fn glp_survives_adversarial_records(
        lines in prop::collection::vec(
            (any::<u8>(), prop::collection::vec((any::<u8>(), any::<i64>()), 0..12)),
            0..8,
        )
    ) {
        let text: String = lines
            .iter()
            .map(|(kind, tokens)| glp_line(*kind, tokens) + "\n")
            .collect();
        if let Err(e) = parse_glp(&text) {
            let nlines = text.lines().count().max(1);
            prop_assert!(e.line() >= 1 && e.line() <= nlines);
            prop_assert!(!e.to_string().is_empty());
        }
    }
}
