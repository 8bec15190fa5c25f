//! Benchmark case descriptors.

/// The contest field size: 2048 x 2048 nm at 1 nm²/px.
pub const FIELD_NM: i64 = 2048;

/// Pattern areas (nm²) of B1–B10 from the paper's Table I.
pub const PAPER_PATTERN_AREAS: [i64; 10] = [
    215344, 169280, 213504, 82560, 281958, 286234, 229149, 128544, 317581, 102400,
];

/// Descriptor of one synthetic benchmark case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseSpec {
    /// Zero-based index (0 = B1).
    pub index: usize,
    /// Case name, `B1`..`B10`.
    pub name: String,
    /// Exact pattern area to synthesize, in nm².
    pub target_area_nm2: i64,
    /// RNG seed for the deterministic generator.
    pub seed: u64,
}

impl CaseSpec {
    /// All ten cases with the paper's pattern areas and fixed seeds.
    pub fn all() -> Vec<CaseSpec> {
        PAPER_PATTERN_AREAS
            .iter()
            .enumerate()
            .map(|(i, &area)| CaseSpec {
                index: i,
                name: format!("B{}", i + 1),
                target_area_nm2: area,
                seed: 0x1CCAD2013 + i as u64,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_cases_named_b1_to_b10() {
        let cases = CaseSpec::all();
        assert_eq!(cases.len(), 10);
        assert_eq!(cases[0].name, "B1");
        assert_eq!(cases[9].name, "B10");
        assert_eq!(cases[3].target_area_nm2, 82560);
    }

    #[test]
    fn seeds_are_distinct() {
        let cases = CaseSpec::all();
        for i in 0..cases.len() {
            for j in i + 1..cases.len() {
                assert_ne!(cases[i].seed, cases[j].seed);
            }
        }
    }
}
