//! The job-option table: one row per `key=value` option of the job grammar.
//!
//! Everything that has to know the set of options is derived from
//! [`KNOBS`]: the option loop of `JobSpec`'s `FromStr` and the option list
//! of its `Display`, the range checks of [`JobSpec::validate`], the
//! unknown-key message, the grammar ([`grammar`], [`help_lines`]) printed by
//! `oms algorithms`, the CLI usage text, the module docs of [`crate::api`]
//! and the README, the CLI's `--flag` handling, and the applicability check
//! of the registries ([`crate::registry::Registry::resolve`]). A new option
//! is a field of [`JobSpec`] (whose default [`JobSpec::flat`] sets) and a
//! row here.

use crate::api::{JobSpec, RepairPolicy};
use crate::hierarchy::DistanceSpec;
use crate::PartitionError;
use std::sync::OnceLock;
use Scope::{Algorithm, Frontend, Job};

/// Who reads a job option.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Every algorithm of either pipeline honours it.
    Job,
    /// The dynamic-maintenance frontend reads it, not the algorithm, so it
    /// is accepted with every algorithm.
    Frontend,
    /// Only some algorithms read it: a job may set it only when the chosen
    /// registry or registry entry lists the key
    /// ([`Entry::reads`](crate::registry::Entry::reads)).
    Algorithm,
}

/// The typed accessors and valid range of an option's [`JobSpec`] field.
enum Field {
    /// An unsigned integer in `min..=max`.
    Int {
        get: fn(&JobSpec) -> u64,
        set: fn(&mut JobSpec, u64),
        min: u64,
        max: u64,
    },
    /// A finite float, `≥ 0` or (`positive`) `> 0`.
    Float {
        get: fn(&JobSpec) -> f64,
        set: fn(&mut JobSpec, f64),
        positive: bool,
    },
    /// [`JobSpec::repair`].
    Repair,
    /// [`JobSpec::distances`].
    Distances,
}

macro_rules! int {
    ($field:ident: $ty:ty, min $min:expr) => {
        Field::Int {
            get: |spec| spec.$field as u64,
            set: |spec, value| spec.$field = value as $ty,
            min: $min,
            max: <$ty>::MAX as u64,
        }
    };
}

macro_rules! float {
    ($field:ident, positive $positive:expr) => {
        Field::Float {
            get: |spec| spec.$field,
            set: |spec, value| spec.$field = value,
            positive: $positive,
        }
    };
}

/// One row of the job-option table.
pub struct Knob {
    /// Canonical key of the job grammar, the one `Display` prints.
    pub key: &'static str,
    /// Accepted alternative spellings.
    pub aliases: &'static [&'static str],
    /// The CLI flag (without the `--`) that sets the option, when it has one.
    pub flag: Option<&'static str>,
    /// Who reads the option.
    pub scope: Scope,
    field: Field,
    /// One help line.
    pub help: &'static str,
}

/// The table, in the order `Display` prints the options.
#[rustfmt::skip] // one row per line, so the table reads column-wise
#[allow(clippy::unnecessary_cast)] // `int!` casts every integer width, u64 included
pub static KNOBS: [Knob; 12] = [
    Knob { key: "eps",     aliases: &["epsilon"],      flag: Some("epsilon"),   scope: Job,       field: float!(epsilon, positive false),           help: "allowed imbalance ε" },
    Knob { key: "seed",    aliases: &[],               flag: Some("seed"),      scope: Job,       field: int!(seed: u64, min 0),                    help: "RNG seed" },
    Knob { key: "passes",  aliases: &[],               flag: Some("passes"),    scope: Job,       field: int!(passes: usize, min 1),                help: "restreaming passes (an upper bound when conv= is set)" },
    Knob { key: "conv",    aliases: &["convergence"],  flag: Some("converge"),  scope: Job,       field: float!(convergence, positive false),       help: "relative cut improvement below which a multi-pass run stops early; 0 = never" },
    Knob { key: "base",    aliases: &[],               flag: None,              scope: Algorithm, field: int!(base_b: u32, min 0),                  help: "nh-OMS multi-section base" },
    Knob { key: "hybrid",  aliases: &[],               flag: None,              scope: Algorithm, field: int!(hashing_bottom_layers: usize, min 0), help: "bottom tree layers solved with Hashing, the hybrid mapping of §3.2" },
    Knob { key: "buf",     aliases: &["buffer"],       flag: Some("buffer"),    scope: Algorithm, field: int!(buffer: usize, min 0),                help: "buffer size of the buffered algorithms in nodes; 0 = algorithm default" },
    Knob { key: "lambda",  aliases: &[],               flag: Some("lambda"),    scope: Algorithm, field: float!(lambda, positive false),            help: "balance weight λ of the vertex-cut edge partitioners" },
    Knob { key: "drift",   aliases: &[],               flag: Some("drift"),     scope: Frontend,  field: float!(drift, positive true),              help: "drift past which dynamic maintenance falls back to a full restream" },
    Knob { key: "repair",  aliases: &[],               flag: Some("repair"),    scope: Frontend,  field: Field::Repair,                             help: "local-repair policy of dynamic maintenance" },
    Knob { key: "window",  aliases: &[],               flag: Some("window"),    scope: Frontend,  field: int!(window: usize, min 1),                help: "delta batches per quality checkpoint of dynamic maintenance" },
    Knob { key: "dist",    aliases: &["distances"],    flag: Some("distances"), scope: Algorithm, field: Field::Distances,                          help: "PE distances; enables the mapping objective J in the report" },
];

/// The message of a spec/config error, without the variant's prefix.
fn reason(error: PartitionError) -> String {
    match error {
        PartitionError::InvalidSpec(msg) | PartitionError::InvalidConfig(msg) => msg,
        other => other.to_string(),
    }
}

/// The all-defaults job the table reads every option's default from.
fn defaults() -> &'static JobSpec {
    static DEFAULTS: OnceLock<JobSpec> = OnceLock::new();
    DEFAULTS.get_or_init(|| JobSpec::flat("", 0))
}

impl Knob {
    /// The row of `key`, by canonical key or alias.
    pub fn find(key: &str) -> Option<&'static Knob> {
        KNOBS
            .iter()
            .find(|knob| knob.key == key || knob.aliases.contains(&key))
    }

    /// Placeholder of the option's value in the grammar.
    pub fn value_hint(&self) -> &'static str {
        match self.field {
            Field::Int { .. } => "<int>",
            Field::Float { .. } => "<float>",
            Field::Repair => "off|local|boundary",
            Field::Distances => "d1:d2:...",
        }
    }

    /// The one range check of the integer options; `Err` carries the reason.
    fn check_int(&self, value: u64, min: u64, max: u64) -> Result<(), String> {
        if value < min {
            Err(format!("{} must be at least {min}", self.key))
        } else if value > max {
            Err(format!("{} must be at most {max}", self.key))
        } else {
            Ok(())
        }
    }

    /// The one range check of the float options; `Err` carries the reason.
    fn check_float(&self, value: f64, positive: bool) -> Result<(), String> {
        if value.is_finite() && (value > 0.0 || (!positive && value == 0.0)) {
            return Ok(());
        }
        let range = if positive { "positive" } else { "non-negative" };
        Err(format!("{} must be a finite {range} number", self.key))
    }

    /// Parses `value` and stores it in the option's field of `spec`; `Err`
    /// carries the reason (unparsable or out of range).
    pub fn set(&self, spec: &mut JobSpec, value: &str) -> Result<(), String> {
        match self.field {
            Field::Int { set, min, max, .. } => {
                let parsed = value.parse().map_err(|_| "expected an integer")?;
                self.check_int(parsed, min, max)?;
                set(spec, parsed);
            }
            Field::Float { set, positive, .. } => {
                let parsed = value
                    .parse()
                    .map_err(|_| "expected a floating-point value")?;
                self.check_float(parsed, positive)?;
                set(spec, parsed);
            }
            Field::Repair => spec.repair = RepairPolicy::parse(value).map_err(reason)?,
            Field::Distances => spec.distances = Some(DistanceSpec::parse(value).map_err(reason)?),
        }
        Ok(())
    }

    /// Range-checks the option's current value in `spec` (the fields are
    /// public, so a job built in code can hold anything).
    pub fn check(&self, spec: &JobSpec) -> Result<(), String> {
        match self.field {
            Field::Int { get, min, max, .. } => self.check_int(get(spec), min, max),
            Field::Float { get, positive, .. } => self.check_float(get(spec), positive),
            Field::Repair | Field::Distances => Ok(()),
        }
    }

    /// The canonical text of the option's value in `spec`, whatever it is
    /// (`None` only for an absent `dist=`).
    fn text(&self, spec: &JobSpec) -> Option<String> {
        match self.field {
            Field::Int { get, .. } => Some(get(spec).to_string()),
            Field::Float { get, .. } => Some(get(spec).to_string()),
            Field::Repair => Some(spec.repair.to_string()),
            Field::Distances => spec.distances.as_ref().map(|d| {
                let parts: Vec<String> = d.distances().iter().map(u64::to_string).collect();
                parts.join(":")
            }),
        }
    }

    /// The canonical text of the option's value in `spec`, or `None` when
    /// it sits at its default — what `Display` prints after `key=`.
    pub fn render(&self, spec: &JobSpec) -> Option<String> {
        let is_default = match self.field {
            Field::Int { get, .. } => get(spec) == get(defaults()),
            Field::Float { get, .. } => get(spec) == get(defaults()),
            Field::Repair => spec.repair == defaults().repair,
            Field::Distances => false,
        };
        self.text(spec).filter(|_| !is_default)
    }
}

/// The comma-separated canonical keys, for the unknown-key message.
pub fn keys() -> String {
    KNOBS.each_ref().map(|knob| knob.key).join(", ")
}

/// The one-line job grammar, every option with its value placeholder.
pub fn grammar() -> String {
    let options: Vec<String> = KNOBS
        .iter()
        .map(|knob| format!("{}={}", knob.key, knob.value_hint()))
        .collect();
    format!("<algo>:<k | a1:a2:...>[@{}]", options.join(","))
}

/// One help line per option — `key=<value>  help (default D)` — as printed
/// in the module docs of [`crate::api`], the README and the CLI usage text.
pub fn help_lines() -> Vec<String> {
    KNOBS
        .iter()
        .map(|knob| {
            let default = knob.text(defaults()).unwrap_or_else(|| "none".into());
            let option = format!("{}={}", knob.key, knob.value_hint());
            format!("{option:<26} {} (default {default})", knob.help)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ALGORITHMS;

    /// A value every row accepts.
    fn sample(knob: &Knob) -> String {
        knob.text(defaults()).unwrap_or_else(|| "1:10".into())
    }

    fn parse_error(text: &str) -> String {
        match JobSpec::parse(text) {
            Err(PartitionError::InvalidSpec(msg)) => msg,
            other => panic!("'{text}' must be an InvalidSpec, got {other:?}"),
        }
    }

    #[test]
    fn keys_aliases_and_flags_are_unique() {
        let mut names: Vec<&str> = Vec::new();
        let mut flags: Vec<&str> = Vec::new();
        for knob in &KNOBS {
            names.push(knob.key);
            names.extend(knob.aliases);
            flags.extend(knob.flag);
            assert_eq!(Knob::find(knob.key).unwrap().key, knob.key);
            for alias in knob.aliases {
                assert_eq!(Knob::find(alias).unwrap().key, knob.key);
            }
        }
        for list in [&mut names, &mut flags] {
            let before = list.len();
            list.sort_unstable();
            list.dedup();
            assert_eq!(list.len(), before, "duplicate in {list:?}");
        }
        assert!(Knob::find("wat").is_none());
    }

    #[test]
    fn every_row_round_trips_its_default_and_stays_silent_about_it() {
        for knob in &KNOBS {
            let value = sample(knob);
            let spec = JobSpec::parse(&format!("fennel:8@{}={value}", knob.key)).unwrap();
            match knob.text(defaults()) {
                Some(_) => assert_eq!(spec.to_string(), "fennel:8", "{}", knob.key),
                None => assert_eq!(spec.to_string(), format!("fennel:8@{}={value}", knob.key)),
            }
        }
    }

    #[test]
    fn a_repeated_option_is_rejected_whatever_its_spelling() {
        for knob in &KNOBS {
            let value = sample(knob);
            let spellings = std::iter::once(&knob.key).chain(knob.aliases);
            for second in spellings {
                let text = format!("fennel:8@{}={value},{second}={value}", knob.key);
                let msg = parse_error(&text);
                assert!(
                    msg.contains(&format!("'{}' is given more than once", knob.key)),
                    "{text}: {msg}"
                );
            }
        }
        // The examples of the bug report.
        for text in [
            "fennel:8@eps=0.1,eps=0.2",
            "fennel:8@eps=0.1,epsilon=0.2",
            "buffered:8@buf=1,buffer=2",
        ] {
            parse_error(text);
        }
    }

    #[test]
    fn out_of_range_and_unparsable_values_are_typed_errors_naming_the_key() {
        for knob in &KNOBS {
            let out_of_range = match knob.field {
                Field::Int { min, .. } if min > 0 => (min - 1).to_string(),
                Field::Int { max, .. } => (max as u128 + 1).to_string(),
                Field::Float { positive: true, .. } => "0".to_string(),
                Field::Float { .. } => "-0.5".to_string(),
                Field::Repair => "sometimes".to_string(),
                Field::Distances => "1:-10".to_string(),
            };
            for bad in [out_of_range.as_str(), "x?"] {
                let text = format!("fennel:8@{}={bad}", knob.key);
                let msg = parse_error(&text);
                assert!(
                    msg.contains(&format!("'{}={bad}'", knob.key)),
                    "{text}: {msg}"
                );
            }
            // Infinite and NaN floats are refused as not finite, not as out
            // of range.
            if let Field::Float { positive, .. } = knob.field {
                let range = if positive { "positive" } else { "non-negative" };
                for bad in ["inf", "-inf", "nan"] {
                    assert_eq!(
                        parse_error(&format!("fennel:8@{}={bad}", knob.key)),
                        format!(
                            "job option '{}={bad}': {} must be a finite {range} number",
                            knob.key, knob.key
                        )
                    );
                }
            }
        }
    }

    #[test]
    fn values_set_in_code_fail_validation_with_the_same_range_check() {
        let mut spec = JobSpec::flat("fennel", 8);
        assert!(spec.validate().is_ok());
        spec.window = 0;
        let Err(PartitionError::InvalidConfig(msg)) = spec.validate() else {
            panic!("window=0 must not validate");
        };
        assert_eq!(msg, "window must be at least 1");
        assert!(JobSpec::flat("fennel", 8).drift(0.0).validate().is_err());
        assert!(JobSpec::flat("fennel", 8)
            .epsilon(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn every_key_appears_in_the_unknown_key_message_and_the_grammar() {
        let unknown = parse_error("fennel:8@wat=1");
        let grammar = grammar();
        let help = help_lines();
        for (knob, line) in KNOBS.iter().zip(&help) {
            assert!(unknown.contains(knob.key), "{unknown}");
            assert!(grammar.contains(&format!("{}=", knob.key)), "{grammar}");
            assert!(line.starts_with(&format!("{}=", knob.key)), "{line}");
        }
    }

    #[test]
    fn module_docs_and_readme_print_the_generated_help() {
        let sources = [
            ("api.rs", include_str!("api.rs")),
            ("README.md", include_str!("../../../README.md")),
        ];
        for (name, text) in sources {
            let documented: Vec<&str> = text
                .lines()
                .map(|line| line.trim_start_matches("//!").trim())
                .collect();
            for line in help_lines() {
                assert!(
                    documented.contains(&line.as_str()),
                    "{name} is missing the generated help line:\n{line}"
                );
            }
        }
    }

    #[test]
    fn registry_entries_only_read_algorithm_scoped_options() {
        for entry in ALGORITHMS.list() {
            for key in entry.reads {
                let knob = Knob::find(key).unwrap_or_else(|| panic!("{}: {key}", entry.name));
                assert_eq!(knob.key, *key, "{}: canonical keys only", entry.name);
                assert_eq!(knob.scope, Scope::Algorithm, "{}: {key}", entry.name);
            }
        }
    }
}
