//! Folded-stack flamegraph export.
//!
//! The folded format is one line per stack, `frame;frame;frame weight`, the
//! input of Brendan Gregg's `flamegraph.pl` and of `inferno-flamegraph`.
//! Weights are **self cycles** (exclusive time), which is exactly what a
//! flamegraph expects: the renderer derives inclusive widths by summing
//! children under a prefix.

use lsv_vengine::RegionProfile;

/// Render the per-region accounting as folded stacks, one region path per
/// line in region-id (interning) order. Regions that were never entered or
/// accumulated zero self cycles are omitted — flamegraph tools treat
/// zero-weight lines as noise.
pub fn folded_stacks(profile: &RegionProfile) -> String {
    let mut out = String::new();
    for id in 0..profile.regions.len() {
        let self_cycles = profile.regions[id].cycles;
        if self_cycles == 0 {
            continue;
        }
        out.push_str(&profile.full_name(id as u32));
        out.push(' ');
        out.push_str(&self_cycles.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsv_arch::presets::sx_aurora;
    use lsv_vengine::{ExecutionMode, VCore};

    #[test]
    fn stacks_sum_to_total_and_use_semicolon_paths() {
        let arch = sx_aurora();
        let mut core = VCore::new(&arch, ExecutionMode::TimingOnly);
        core.enable_profiler();
        core.region_enter("fwd");
        core.scalar_ops(6);
        core.region_enter("inner");
        core.scalar_ops(10);
        core.region_exit();
        core.region_exit();
        let profile = core.take_profile().unwrap();

        let folded = folded_stacks(&profile);
        let mut sum = 0u64;
        for line in folded.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("weighted line");
            assert!(path.starts_with("root"), "line {line:?}");
            sum += weight.parse::<u64>().expect("integer weight");
        }
        assert_eq!(sum, profile.total.cycles);
        assert!(folded.contains("root;fwd;inner "));
    }
}
