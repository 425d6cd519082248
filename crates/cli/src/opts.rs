//! Tiny argument-parsing helpers shared by the subcommands.

use cbsp_core::FuzzyConfig;
use cbsp_program::{Input, Scale};
use std::collections::BTreeMap;

/// Parsed command line: positional arguments plus flags. Flags accept
/// three spellings: `--key value`, `--key=value`, and a bare `--key`
/// (stored with an empty value, for presence-only switches such as
/// `--fuzzy-map`).
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Opts {
    /// Parses everything after the subcommand. A bare `--key` whose
    /// next token is another flag (or the end of the line) is recorded
    /// as present with an empty value; `--key=value` binds explicitly.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Opts::default();
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some((key, value)) = key.split_once('=') {
                    opts.flags.insert(key.to_string(), value.to_string());
                } else if args.peek().is_some_and(|next| !next.starts_with("--")) {
                    let value = args.next().expect("peeked");
                    opts.flags.insert(key.to_string(), value);
                } else {
                    opts.flags.insert(key.to_string(), String::new());
                }
            } else {
                opts.positional.push(a);
            }
        }
        Ok(opts)
    }

    /// The name of every flag given, in sorted order.
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// Returns a flag's raw value.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Returns a parsed flag value or a default.
    pub fn flag_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    /// The scale from `--scale test|train|ref` (default `train`).
    pub fn scale(&self) -> Result<Scale, String> {
        match self.flag("scale").unwrap_or("train") {
            "test" => Ok(Scale::Test),
            "train" => Ok(Scale::Train),
            "ref" | "reference" => Ok(Scale::Reference),
            other => Err(format!("bad --scale {other} (test|train|ref)")),
        }
    }

    /// The standard input for the chosen scale.
    pub fn input(&self) -> Result<Input, String> {
        Ok(Input::for_scale(self.scale()?))
    }

    /// Worker-thread count from `--threads N` (default 0 = one per
    /// available core). Results are bit-identical at every setting.
    pub fn threads(&self) -> Result<usize, String> {
        self.flag_or("threads", 0usize)
    }

    /// The fuzzy-mapping fallback from `--fuzzy-map[=threshold]`:
    /// absent ⇒ exact-only mapping, bare ⇒ the default acceptance
    /// threshold, `--fuzzy-map=0.5` ⇒ a custom one in `(0, 1]`.
    pub fn fuzzy(&self) -> Result<Option<FuzzyConfig>, String> {
        match self.flag("fuzzy-map") {
            None => Ok(None),
            Some("") => Ok(Some(FuzzyConfig::default())),
            Some(v) => {
                let threshold: f64 = v
                    .parse()
                    .map_err(|_| format!("bad value for --fuzzy-map: {v}"))?;
                if !(threshold > 0.0 && threshold <= 1.0) {
                    return Err(format!("--fuzzy-map threshold {threshold} outside (0, 1]"));
                }
                Ok(Some(FuzzyConfig { threshold }))
            }
        }
    }

    /// The artifact-store directory from `--cache-dir` (default
    /// `.cbsp-cache`).
    pub fn cache_dir(&self) -> &str {
        self.flag("cache-dir").unwrap_or(".cbsp-cache")
    }

    /// The cache policy from `--no-cache 1` / `--refresh 1`; `None`
    /// under `--no-cache 1`, which runs without a store.
    pub fn cache_policy(&self) -> Result<Option<cbsp_store::CachePolicy>, String> {
        let no_cache = self.flag_or("no-cache", 0u8)? != 0;
        let refresh = self.flag_or("refresh", 0u8)? != 0;
        match (no_cache, refresh) {
            (true, true) => Err("--no-cache and --refresh are mutually exclusive".into()),
            (true, false) => Ok(None),
            (false, true) => Ok(Some(cbsp_store::CachePolicy::Refresh)),
            (false, false) => Ok(Some(cbsp_store::CachePolicy::ReadWrite)),
        }
    }

    /// Chrome trace-event output path from `--trace-out FILE`.
    /// Present ⇒ tracing is enabled for the run.
    pub fn trace_out(&self) -> Option<&str> {
        self.flag("trace-out")
    }

    /// Flat metrics snapshot output path from `--metrics-json FILE`.
    /// Present ⇒ tracing is enabled for the run.
    pub fn metrics_out(&self) -> Option<&str> {
        self.flag("metrics-json")
    }

    /// Enables the trace collector when either observability flag is
    /// set; returns whether it was enabled.
    pub fn enable_tracing(&self) -> bool {
        let wanted = self.trace_out().is_some() || self.metrics_out().is_some();
        if wanted {
            cbsp_trace::reset();
            cbsp_trace::enable();
        }
        wanted
    }

    /// Writes the requested observability artifacts (and disables the
    /// collector) if `--trace-out` / `--metrics-json` were given.
    pub fn export_tracing(&self) -> Result<(), String> {
        if self.trace_out().is_none() && self.metrics_out().is_none() {
            return Ok(());
        }
        if let Some(path) = self.trace_out() {
            std::fs::write(path, cbsp_trace::chrome_trace_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("trace written to {path} (load in chrome://tracing or ui.perfetto.dev)");
        }
        if let Some(path) = self.metrics_out() {
            std::fs::write(path, cbsp_trace::metrics_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("metrics written to {path}");
        }
        cbsp_trace::disable();
        Ok(())
    }

    /// Requires the n-th positional argument.
    pub fn positional(&self, index: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

/// Reads a JSON file into a deserializable value.
pub fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Writes a serializable value as pretty JSON.
pub fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| format!("serializing: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_and_positionals() {
        let o = Opts::parse(
            ["gcc", "--target", "32o", "--interval", "5000", "out.json"]
                .iter()
                .map(|s| s.to_string()),
        )
        .expect("parses");
        assert_eq!(o.positional, vec!["gcc", "out.json"]);
        assert_eq!(o.flag("target"), Some("32o"));
        assert_eq!(o.flag_or("interval", 0u64).expect("number"), 5000);
        assert_eq!(o.flag_or("missing", 7u64).expect("default"), 7);
    }

    #[test]
    fn valueless_equals_and_bad_values() {
        // A bare flag is present with an empty value…
        let o = Opts::parse(["--out"].iter().map(|s| s.to_string())).expect("parses");
        assert_eq!(o.flag("out"), Some(""));
        // …and `--key=value` binds explicitly, even before a flag.
        let o = Opts::parse(
            ["--interval=5000", "--no-cache", "--scale", "test"]
                .iter()
                .map(|s| s.to_string()),
        )
        .expect("parses");
        assert_eq!(o.flag_or("interval", 0u64).expect("number"), 5000);
        assert_eq!(o.flag("no-cache"), Some(""));
        assert_eq!(o.scale().expect("valid"), Scale::Test);
        let o = Opts::parse(["--interval", "abc"].iter().map(|s| s.to_string())).expect("parses");
        assert!(o.flag_or("interval", 0u64).is_err());
        assert!(o.scale().is_ok(), "default scale");
    }

    #[test]
    fn fuzzy_flag_forms() {
        let parse =
            |args: &[&str]| Opts::parse(args.iter().map(|s| s.to_string())).expect("parses");
        assert_eq!(parse(&[]).fuzzy().expect("absent"), None);
        assert_eq!(
            parse(&["--fuzzy-map"]).fuzzy().expect("bare"),
            Some(FuzzyConfig::default())
        );
        assert_eq!(
            parse(&["--fuzzy-map=0.45"]).fuzzy().expect("custom"),
            Some(FuzzyConfig { threshold: 0.45 })
        );
        assert_eq!(
            parse(&["--fuzzy-map", "0.45"]).fuzzy().expect("spaced"),
            Some(FuzzyConfig { threshold: 0.45 })
        );
        assert!(parse(&["--fuzzy-map=zero"]).fuzzy().is_err());
        assert!(parse(&["--fuzzy-map=0"]).fuzzy().is_err());
        assert!(parse(&["--fuzzy-map=1.5"]).fuzzy().is_err());
    }

    #[test]
    fn scale_parsing() {
        let o = Opts::parse(["--scale", "ref"].iter().map(|s| s.to_string())).expect("parses");
        assert_eq!(o.scale().expect("valid"), Scale::Reference);
        let o = Opts::parse(["--scale", "huge"].iter().map(|s| s.to_string())).expect("parses");
        assert!(o.scale().is_err());
    }
}
