//! The benchmark suite: five "superblue-like" synthetic designs.
//!
//! The paper evaluates on `superblue{1,5,10,12,18}` from the ISPD-2011
//! routability-driven placement contest. Those layouts are proprietary; the
//! specs here are seeded synthetic stand-ins whose v-pin populations are
//! scaled to 1/20 of the paper's (Table I column `#v-pin`) and whose
//! congestion/locality profiles are differentiated the way the paper
//! describes the originals (e.g. `superblue12` is the most congested with
//! the largest candidate lists; `superblue10` has an atypical v-pin
//! distribution with a much higher proximity-attack success rate).

use crate::error::LayoutError;
use crate::generator::{generate, CutProfile, DesignSpec, Hotspot};
use crate::route::{route, RoutedDesign};
use crate::split::SplitView;
use crate::tech::SplitLayer;

/// A named, generated benchmark.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The routed design.
    pub design: RoutedDesign,
}

impl Benchmark {
    /// Short name (`sb1`, `sb5`, ...).
    pub fn name(&self) -> &str {
        &self.design.name
    }

    /// Cuts this benchmark at `split`.
    pub fn split(&self, split: SplitLayer) -> SplitView {
        SplitView::cut(&self.design, split)
    }
}

/// The five-design suite used throughout the evaluation.
#[derive(Debug, Clone)]
pub struct Suite {
    benchmarks: Vec<Benchmark>,
}

impl Suite {
    /// Builds the full five-design suite at `scale` (1.0 = default size,
    /// i.e. 1/20 of the paper's layouts; smaller values shrink every count
    /// proportionally for quick tests).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidSpec`] if `scale` shrinks a spec below
    /// viability.
    ///
    /// # Examples
    ///
    /// ```
    /// use sm_layout::suite::Suite;
    ///
    /// let suite = Suite::ispd2011_like(0.01)?;
    /// assert_eq!(suite.len(), 5);
    /// assert_eq!(suite.benchmarks()[0].name(), "sb1");
    /// # Ok::<(), sm_layout::error::LayoutError>(())
    /// ```
    pub fn ispd2011_like(scale: f64) -> Result<Self, LayoutError> {
        let specs = Self::specs_scaled(scale);
        let mut benchmarks = Vec::with_capacity(specs.len());
        for spec in specs {
            let placed = generate(&spec)?;
            benchmarks.push(Benchmark {
                design: route(placed),
            });
        }
        Ok(Self { benchmarks })
    }

    /// The five specs at the given scale.
    pub fn specs_scaled(scale: f64) -> Vec<DesignSpec> {
        vec![
            Self::spec_sb1_scaled(scale),
            Self::spec_sb5_scaled(scale),
            Self::spec_sb10_scaled(scale),
            Self::spec_sb12_scaled(scale),
            Self::spec_sb18_scaled(scale),
        ]
    }

    /// Number of benchmarks.
    pub fn len(&self) -> usize {
        self.benchmarks.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.benchmarks.is_empty()
    }

    /// The benchmarks in suite order.
    pub fn benchmarks(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Splits every benchmark at `split`.
    pub fn split_all(&self, split: SplitLayer) -> Vec<SplitView> {
        self.benchmarks.iter().map(|b| b.split(split)).collect()
    }

    fn scaled(scale: f64, base: DesignSpec) -> DesignSpec {
        let s = |x: u32| ((f64::from(x) * scale).round() as u32).max(1);
        DesignSpec {
            num_cells: s(base.num_cells).max(16),
            num_nets: s(base.num_nets).max(24),
            num_macros: ((f64::from(base.num_macros) * scale).round() as u32),
            cuts: CutProfile {
                at_l4: s(base.cuts.at_l4).max(3),
                at_l6: s(base.cuts.at_l6).max(2),
                at_l8: s(base.cuts.at_l8).max(1),
            },
            ..base
        }
    }

    /// `superblue1`-like: mid-size, moderate congestion.
    pub fn spec_sb1_scaled(scale: f64) -> DesignSpec {
        Self::scaled(
            scale,
            DesignSpec {
                name: "sb1".into(),
                num_cells: 40_000,
                num_nets: 44_000,
                num_macros: 6,
                density: 0.55,
                aspect: 1.0,
                hotspots: vec![
                    Hotspot {
                        at: (0.3, 0.4),
                        amplitude: 2.0,
                        sigma: 0.10,
                    },
                    Hotspot {
                        at: (0.75, 0.7),
                        amplitude: 1.5,
                        sigma: 0.08,
                    },
                ],
                locality: 0.92,
                locality_radius: 0.05,
                mean_fanout: 2.2,
                cuts: CutProfile {
                    at_l4: 3_738,
                    at_l6: 1_075,
                    at_l8: 196,
                },
                jitter: 900,
                congestion_jitter: 3.0,
                z_shape_prob: 0.15,
                seed: 0x5b01,
            },
        )
    }

    /// `superblue5`-like: larger, slightly more congested.
    fn spec_sb5_scaled(scale: f64) -> DesignSpec {
        Self::scaled(
            scale,
            DesignSpec {
                name: "sb5".into(),
                num_cells: 42_000,
                num_nets: 46_000,
                num_macros: 8,
                density: 0.58,
                aspect: 1.2,
                hotspots: vec![
                    Hotspot {
                        at: (0.5, 0.5),
                        amplitude: 2.5,
                        sigma: 0.12,
                    },
                    Hotspot {
                        at: (0.2, 0.8),
                        amplitude: 1.2,
                        sigma: 0.07,
                    },
                ],
                locality: 0.90,
                locality_radius: 0.06,
                mean_fanout: 2.4,
                cuts: CutProfile {
                    at_l4: 4_453,
                    at_l6: 1_404,
                    at_l8: 275,
                },
                jitter: 1_100,
                congestion_jitter: 3.5,
                z_shape_prob: 0.20,
                seed: 0x5b05,
            },
        )
    }

    /// `superblue10`-like: the largest v-pin population but an atypical,
    /// sparse v-pin distribution — matches sit unusually close to their
    /// partners, which is why the paper's proximity attack does much better
    /// here than anywhere else.
    fn spec_sb10_scaled(scale: f64) -> DesignSpec {
        Self::scaled(
            scale,
            DesignSpec {
                name: "sb10".into(),
                num_cells: 46_000,
                num_nets: 52_000,
                num_macros: 4,
                density: 0.45,
                aspect: 0.9,
                hotspots: vec![Hotspot {
                    at: (0.5, 0.35),
                    amplitude: 1.2,
                    sigma: 0.15,
                }],
                locality: 0.98,
                locality_radius: 0.03,
                mean_fanout: 2.0,
                cuts: CutProfile {
                    at_l4: 5_382,
                    at_l6: 2_180,
                    at_l8: 322,
                },
                jitter: 400,
                congestion_jitter: 1.5,
                z_shape_prob: 0.08,
                seed: 0x5b0a,
            },
        )
    }

    /// `superblue12`-like: the most congested design with by far the largest
    /// candidate lists in the prior work.
    pub fn spec_sb12_scaled(scale: f64) -> DesignSpec {
        Self::scaled(
            scale,
            DesignSpec {
                name: "sb12".into(),
                num_cells: 44_000,
                num_nets: 50_000,
                num_macros: 10,
                density: 0.68,
                aspect: 1.0,
                hotspots: vec![
                    Hotspot {
                        at: (0.35, 0.5),
                        amplitude: 3.5,
                        sigma: 0.14,
                    },
                    Hotspot {
                        at: (0.7, 0.3),
                        amplitude: 3.0,
                        sigma: 0.10,
                    },
                    Hotspot {
                        at: (0.6, 0.8),
                        amplitude: 2.0,
                        sigma: 0.08,
                    },
                ],
                locality: 0.86,
                locality_radius: 0.08,
                mean_fanout: 2.6,
                cuts: CutProfile {
                    at_l4: 4_264,
                    at_l6: 1_900,
                    at_l8: 433,
                },
                jitter: 2_200,
                congestion_jitter: 5.0,
                z_shape_prob: 0.35,
                seed: 0x5b0c,
            },
        )
    }

    /// `superblue18`-like: the smallest design.
    pub fn spec_sb18_scaled(scale: f64) -> DesignSpec {
        Self::scaled(
            scale,
            DesignSpec {
                name: "sb18".into(),
                num_cells: 24_000,
                num_nets: 27_000,
                num_macros: 5,
                density: 0.60,
                aspect: 1.1,
                hotspots: vec![Hotspot {
                    at: (0.4, 0.6),
                    amplitude: 2.2,
                    sigma: 0.11,
                }],
                locality: 0.91,
                locality_radius: 0.05,
                mean_fanout: 2.3,
                cuts: CutProfile {
                    at_l4: 2_129,
                    at_l6: 840,
                    at_l8: 188,
                },
                jitter: 1_000,
                congestion_jitter: 3.0,
                z_shape_prob: 0.18,
                seed: 0x5b12,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_five_distinct_benchmarks() {
        let suite = Suite::ispd2011_like(0.004).expect("valid scale");
        assert_eq!(suite.len(), 5);
        let names: Vec<&str> = suite.benchmarks().iter().map(|b| b.name()).collect();
        assert_eq!(names, ["sb1", "sb5", "sb10", "sb12", "sb18"]);
    }

    #[test]
    fn vpin_populations_match_scaled_targets() {
        let scale = 0.02;
        let suite = Suite::ispd2011_like(scale).expect("valid scale");
        for (bench, spec) in suite.benchmarks().iter().zip(Suite::specs_scaled(scale)) {
            let v8 = bench.split(SplitLayer::new(8).expect("valid")).num_vpins();
            assert_eq!(v8 as u32, 2 * spec.cuts.at_l8, "{}", bench.name());
        }
    }

    #[test]
    fn specs_are_internally_valid_at_many_scales() {
        for scale in [0.004, 0.02, 0.1, 1.0] {
            for spec in Suite::specs_scaled(scale) {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{} at {scale}: {e}", spec.name));
            }
        }
    }

    #[test]
    fn sb12_is_most_congested_spec() {
        let specs = Suite::specs_scaled(1.0);
        let sb12 = specs.iter().find(|s| s.name == "sb12").expect("present");
        for other in specs.iter().filter(|s| s.name != "sb12") {
            assert!(sb12.jitter >= other.jitter);
            assert!(sb12.density >= other.density);
        }
    }
}
