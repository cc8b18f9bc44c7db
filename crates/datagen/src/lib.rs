//! Seeded synthetic scientific datasets standing in for the paper's six
//! evaluation applications (plus HACC, which appears in Table I).
//!
//! The real datasets (CESM climate snapshots, Miranda hydrodynamics, RTM
//! seismic wavefields, Nyx cosmology, Hurricane ISABEL, QMCPACK orbitals) are
//! multi-terabyte archives that cannot ship with a reproduction. What the
//! compression pipeline and the quality predictor actually *see* of a dataset
//! is its statistical structure — smoothness spectrum, value range, sparsity,
//! dynamic range, oscillation — so each generator synthesizes a field with
//! the matching structure, deterministically from a seed.
//!
//! # Quickstart
//!
//! ```
//! use ocelot_datagen::{Application, FieldSpec};
//!
//! let spec = FieldSpec::new(Application::Cesm, "CLDHGH").with_scale(16);
//! let data = spec.generate();
//! assert_eq!(data.dims().len(), 2);
//! ```

pub mod apps;
pub mod spectral;

pub use apps::{Application, FieldSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use ocelot_sz::stats::value_stats;

    #[test]
    fn generation_is_deterministic() {
        let a = FieldSpec::new(Application::Miranda, "density").with_scale(8).generate();
        let b = FieldSpec::new(Application::Miranda, "density").with_scale(8).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_fields_differ() {
        let a = FieldSpec::new(Application::Cesm, "CLDHGH").with_scale(16).generate();
        let b = FieldSpec::new(Application::Cesm, "FLDSC").with_scale(16).generate();
        assert_ne!(a, b);
        let sa = value_stats(&a);
        let sb = value_stats(&b);
        assert!(sa.range < sb.range, "CLDHGH range {} should be far below FLDSC range {}", sa.range, sb.range);
    }

    #[test]
    fn every_application_generates_every_field() {
        for app in Application::ALL {
            for &field in app.fields() {
                let data = FieldSpec::new(app, field).with_scale(16).generate();
                assert!(!data.is_empty(), "{app:?}/{field} produced empty data");
                assert!(data.values().iter().all(|v| v.is_finite()), "{app:?}/{field} produced non-finite values");
            }
        }
    }
}
