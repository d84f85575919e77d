//! Experiment scales.
//!
//! The paper's datasets range from 30 million to 4 billion points; the
//! reproduction runs the same experiment *structure* at laptop scale.
//! Two presets are provided: [`Scale::small`] (`repro --small`) runs
//! every experiment in seconds, [`Scale::paper`] is the default of the
//! `repro` binary and large enough for the trends to be unambiguous.

/// Dataset sizes for one experiment sweep.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Points per region dataset (paper: ~30 M).
    pub region_n: usize,
    /// Points per hierarchy block (paper: ~30 M for MA; Planet = 64
    /// blocks).
    pub hierarchy_base: usize,
    /// Cardinality of the Figure 4/5 uniform datasets (paper: 10 000 —
    /// kept as-is; these experiments are centralized).
    pub fig45_n: usize,
    /// Base points fed into the ×4 distortion tool (Figure 10(a)).
    pub distort_base: usize,
    /// Points in the TIGER analog (Figure 10(b)).
    pub tiger_n: usize,
}

impl Scale {
    /// Quick preset (`repro --small`, `planviz`).
    pub fn small() -> Self {
        Scale {
            region_n: 8_000,
            hierarchy_base: 1_000,
            fig45_n: 4_000,
            distort_base: 10_000,
            tiger_n: 20_000,
        }
    }

    /// Default preset of the `repro` binary.
    pub fn paper() -> Self {
        Scale {
            region_n: 150_000,
            hierarchy_base: 8_000,
            fig45_n: 10_000,
            distort_base: 80_000,
            tiger_n: 150_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_larger() {
        let s = Scale::small();
        let p = Scale::paper();
        assert!(p.region_n > s.region_n);
        assert!(p.hierarchy_base > s.hierarchy_base);
        assert!(p.distort_base > s.distort_base);
    }
}
