//! Command-line parsing shared by both binaries.

use crate::workload::Workload;

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The workload seed; every injector and fabric seed derives from it.
    pub seed: u64,
    /// How long the run measures, in host seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Shrinks every schedule to a few hundred cycles. Tests set it; the
    /// command line cannot.
    pub tiny: bool,
}

/// Usage text printed on a parse error.
pub const USAGE: &str = "usage: simbench --workload <r64-hotspot|r8-policies-recorded|\
r16-periodic-sparse|fabric-mesh-credit> --seed <n> --seconds <n> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
///
/// Returns a message naming the offending argument.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value}: not a whole number"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds {value}: not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&argv(
            "--workload r64-hotspot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::R64Hotspot);
        assert_eq!(a.seed, 7);
        assert!((a.seconds - 10.0).abs() < 1e-12);
        assert!(a.trace);
        assert!(!a.tiny);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv("--workload r64-hotspot --seconds 1 --trace 0")).is_err());
        assert!(parse(&argv(
            "--workload r64-hotspot --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse(&argv(
            "--workload r64-hotspot --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse(&argv("--workload r64-hotspot --seed")).is_err());
    }
}
