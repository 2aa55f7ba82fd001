//! Simulation-scale presets: how many phases, how long each is.

use starnuma_topology::ScalePreset;
use starnuma_types::{ConfigError, StarNumaError};

/// Controls simulation length and the §V-G methodology preset.
///
/// The paper simulates 5–10 checkpoints of 100 M instructions per core; this
/// reproduction scales those windows down so the full table/figure harness
/// runs on a laptop. `STARNUMA_SCALE=quick|default|full` selects a preset at
/// bench time via [`ScaleConfig::from_env`].
#[derive(Clone, PartialEq, Debug)]
pub struct ScaleConfig {
    /// Number of phases (checkpoints).
    pub phases: usize,
    /// Instructions per core per phase.
    pub instructions_per_phase: u64,
    /// Warm-up instructions per core.
    pub warmup_instructions: u64,
    /// RNG seed.
    pub seed: u64,
    /// The §V-G simulation-configuration preset (SC1/SC2/SC3).
    pub preset: ScalePreset,
}

impl ScaleConfig {
    /// Tiny runs for unit/integration tests (~seconds per experiment).
    pub fn quick() -> Self {
        ScaleConfig {
            phases: 2,
            instructions_per_phase: 20_000,
            warmup_instructions: 4_000,
            seed: 42,
            preset: ScalePreset::Sc1,
        }
    }

    /// The default harness scale: long enough for migration dynamics to
    /// settle and contention to develop.
    pub fn default_scale() -> Self {
        ScaleConfig {
            phases: 5,
            instructions_per_phase: 100_000,
            warmup_instructions: 10_000,
            seed: 42,
            preset: ScalePreset::Sc1,
        }
    }

    /// A heavier scale for final numbers (several minutes per figure).
    pub fn full() -> Self {
        ScaleConfig {
            phases: 8,
            instructions_per_phase: 250_000,
            warmup_instructions: 25_000,
            seed: 42,
            preset: ScalePreset::Sc1,
        }
    }

    /// The §V-G preset label (`SC1`/`SC2`/`SC3`) a run record carries.
    pub fn preset_label(&self) -> &'static str {
        match self.preset {
            ScalePreset::Sc1 => "SC1",
            ScalePreset::Sc2 => "SC2",
            ScalePreset::Sc3 => "SC3",
        }
    }

    /// Reads `STARNUMA_SCALE` (`quick`, `default`, `full`); unset defaults
    /// to [`ScaleConfig::default_scale`].
    ///
    /// # Errors
    ///
    /// Returns [`StarNumaError::Config`] on any other value — a typo like
    /// `ful` must fail the run, not silently fall back to the default and
    /// mislabel an entire benchmark campaign.
    pub fn from_env() -> Result<Self, StarNumaError> {
        match std::env::var("STARNUMA_SCALE").as_deref() {
            Err(_) => Ok(Self::default_scale()),
            Ok("quick") => Ok(Self::quick()),
            Ok("default") => Ok(Self::default_scale()),
            Ok("full") => Ok(Self::full()),
            Ok(other) => Err(StarNumaError::Config(ConfigError::new(format!(
                "unknown STARNUMA_SCALE '{other}' (quick|default|full)"
            )))),
        }
    }

    /// Applies a §V-G methodology preset: SC2 triples the detailed window;
    /// SC3 doubles the machine (handled in the system parameters).
    ///
    /// Idempotent and reversible: re-applying the current preset is a
    /// no-op, and switching away from SC2 restores the SC1/SC3 window
    /// length instead of compounding the tripling.
    pub fn with_preset(mut self, preset: ScalePreset) -> Self {
        if self.preset == preset {
            return self;
        }
        if self.preset == ScalePreset::Sc2 {
            self.instructions_per_phase /= 3;
        }
        if preset == ScalePreset::Sc2 {
            self.instructions_per_phase *= 3;
        }
        self.preset = preset;
        self
    }
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self::default_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let q = ScaleConfig::quick();
        let d = ScaleConfig::default_scale();
        let f = ScaleConfig::full();
        assert!(q.instructions_per_phase < d.instructions_per_phase);
        assert!(d.instructions_per_phase < f.instructions_per_phase);
        assert!(q.phases <= d.phases && d.phases <= f.phases);
    }

    #[test]
    fn sc2_triples_instructions() {
        let base = ScaleConfig::quick();
        let sc2 = ScaleConfig::quick().with_preset(ScalePreset::Sc2);
        assert_eq!(sc2.instructions_per_phase, 3 * base.instructions_per_phase);
        let sc3 = ScaleConfig::quick().with_preset(ScalePreset::Sc3);
        assert_eq!(sc3.instructions_per_phase, base.instructions_per_phase);
        assert_eq!(sc3.preset, ScalePreset::Sc3);
    }

    #[test]
    fn with_preset_is_idempotent_and_reversible() {
        let base = ScaleConfig::quick();
        // Regression: applying SC2 twice used to 9x the window.
        let twice = ScaleConfig::quick()
            .with_preset(ScalePreset::Sc2)
            .with_preset(ScalePreset::Sc2);
        assert_eq!(
            twice.instructions_per_phase,
            3 * base.instructions_per_phase
        );
        // Switching away from SC2 restores the original window.
        let back = twice.with_preset(ScalePreset::Sc1);
        assert_eq!(back.instructions_per_phase, base.instructions_per_phase);
        assert_eq!(back.preset, ScalePreset::Sc1);
        let via_sc3 = ScaleConfig::quick()
            .with_preset(ScalePreset::Sc2)
            .with_preset(ScalePreset::Sc3);
        assert_eq!(via_sc3.instructions_per_phase, base.instructions_per_phase);
    }

    #[test]
    fn from_env_rejects_unknown_values() {
        // One test owns the variable end-to-end: env mutation must not
        // race with a second test reading it.
        std::env::set_var("STARNUMA_SCALE", "quick");
        assert_eq!(ScaleConfig::from_env(), Ok(ScaleConfig::quick()));
        std::env::set_var("STARNUMA_SCALE", "default");
        assert_eq!(ScaleConfig::from_env(), Ok(ScaleConfig::default_scale()));
        std::env::set_var("STARNUMA_SCALE", "full");
        assert_eq!(ScaleConfig::from_env(), Ok(ScaleConfig::full()));
        std::env::set_var("STARNUMA_SCALE", "ful");
        let err = ScaleConfig::from_env();
        assert!(err.is_err(), "typo must be rejected, got {err:?}");
        assert!(format!("{}", err.unwrap_err()).contains("ful"));
        std::env::remove_var("STARNUMA_SCALE");
        assert_eq!(ScaleConfig::from_env(), Ok(ScaleConfig::default_scale()));
    }
}
