//! The machine a result was measured on.

/// Compile-time target features worth knowing when comparing results.
const FEATURES: [(&str, bool); 6] = [
    ("sse4.2", cfg!(target_feature = "sse4.2")),
    ("avx", cfg!(target_feature = "avx")),
    ("avx2", cfg!(target_feature = "avx2")),
    ("fma", cfg!(target_feature = "fma")),
    ("bmi2", cfg!(target_feature = "bmi2")),
    ("avx512f", cfg!(target_feature = "avx512f")),
];

/// One line naming cores, CPU, enabled target features, the `simd`
/// feature and the compiler.
pub fn line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<&str> = FEATURES
        .iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| *name)
        .collect();
    let level = if cfg!(all(target_feature = "avx2", target_feature = "fma")) {
        "x86-64-v3"
    } else {
        "baseline"
    };
    format!(
        "machine: nproc={nproc} cpu=\"{}\" level={level} features={} simd={} rustc=\"{}\"",
        cpu_model(),
        features.join(","),
        cfg!(feature = "simd"),
        env!("PERFBENCH_RUSTC"),
    )
}

/// The processor brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // CPUID exists on every x86-64 processor; leaf 0x8000_0000 reports
    // the highest extended leaf, checked before the brand leaves are read.
    let max_extended = __cpuid(0x8000_0000).eax;
    if max_extended < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}
