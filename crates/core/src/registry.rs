//! The one name/alias → constructor store behind every dispatch registry.
//!
//! A [`Registry<T>`] maps algorithm names to [`Entry<T>`] rows whose `build`
//! turns a [`JobSpec`] into a `Box<T>`. The node pipeline instantiates it
//! for `dyn Partitioner` ([`crate::api::ALGORITHMS`]), `oms-edgepart` for
//! its one concrete `StreamingEdgePartitioner`; downstream crates add rows
//! with [`Registry::register`]. A row's `build` is the only constructor of
//! its algorithm: every frontend resolves a job through
//! [`Registry::resolve`], which is also where the job's options are
//! validated and checked against what the chosen algorithm reads — so both
//! pipelines reject a stray option the same way, and no constructor
//! clamps an option validation already bounds.

use crate::api::JobSpec;
use crate::knobs::{Scope, KNOBS};
use crate::{PartitionError, Result};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One algorithm of a [`Registry`].
pub struct Entry<T: ?Sized> {
    /// Canonical registry name (what [`JobSpec::algorithm`] refers to).
    pub name: &'static str,
    /// Accepted alternative spellings.
    pub aliases: &'static [&'static str],
    /// One-line description for `--help`-style listings.
    pub description: &'static str,
    /// Canonical keys of the algorithm-scoped job options
    /// ([`Scope::Algorithm`]) this algorithm reads, beyond the ones its
    /// whole registry takes. A job that sets any other one is rejected.
    pub reads: &'static [&'static str],
    /// Constructor turning a [`JobSpec`] into the boxed algorithm.
    pub build: fn(&JobSpec) -> Result<Box<T>>,
}

impl<T: ?Sized> Entry<T> {
    /// Whether the algorithm reads the algorithm-scoped option `key`.
    pub fn reads(&self, key: &str) -> bool {
        self.reads.contains(&key)
    }
}

impl<T: ?Sized> Clone for Entry<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: ?Sized> Copy for Entry<T> {}

/// A name → [`Entry`] store, const-constructible so each pipeline keeps its
/// instance in a `static`.
pub struct Registry<T: ?Sized + 'static> {
    kind: &'static str,
    reads: &'static [&'static str],
    builtins: fn() -> Vec<Entry<T>>,
    entries: OnceLock<Mutex<Vec<Entry<T>>>>,
}

impl<T: ?Sized> Registry<T> {
    /// A registry whose entries are called `kind` in messages ("algorithm",
    /// "edge algorithm"), all read the algorithm-scoped options `reads`,
    /// and start out as `builtins()`.
    pub const fn new(
        kind: &'static str,
        reads: &'static [&'static str],
        builtins: fn() -> Vec<Entry<T>>,
    ) -> Self {
        Registry {
            kind,
            reads,
            builtins,
            entries: OnceLock::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry<T>>> {
        self.entries
            .get_or_init(|| Mutex::new((self.builtins)()))
            .lock()
            .expect("a registry update never panics while holding the lock")
    }

    /// Registers (or replaces, by name) an algorithm.
    pub fn register(&self, entry: Entry<T>) {
        let mut entries = self.lock();
        match entries.iter_mut().find(|e| e.name == entry.name) {
            Some(slot) => *slot = entry,
            None => entries.push(entry),
        }
    }

    /// A snapshot of every registered algorithm, in registration order.
    pub fn list(&self) -> Vec<Entry<T>> {
        self.lock().clone()
    }

    /// Looks an algorithm up by canonical name or alias (case-insensitive).
    pub fn find(&self, name: &str) -> Option<Entry<T>> {
        let wanted = name.to_ascii_lowercase();
        self.list()
            .into_iter()
            .find(|e| e.name == wanted || e.aliases.contains(&wanted.as_str()))
    }

    /// Names of the registered algorithms that read `key` (all for `None`).
    fn names(&self, key: Option<&str>) -> String {
        let entries = self.list();
        let names = entries.iter().filter(|e| key.is_none_or(|k| e.reads(k)));
        names.map(|e| e.name).collect::<Vec<_>>().join(", ")
    }

    /// The entry `spec` names, after checking the job against it: the
    /// algorithm must be registered, the options must pass
    /// [`JobSpec::validate`], and no algorithm-scoped option may sit at a
    /// non-default value unless this registry or the entry reads it.
    pub fn resolve(&self, spec: &JobSpec) -> Result<Entry<T>> {
        let entry = self.find(&spec.algorithm).ok_or_else(|| {
            PartitionError::InvalidSpec(format!(
                "unknown {} '{}' (registered: {})",
                self.kind,
                spec.algorithm,
                self.names(None)
            ))
        })?;
        spec.validate()?;
        for knob in KNOBS.iter().filter(|k| k.scope == Scope::Algorithm) {
            let read = self.reads.contains(&knob.key) || entry.reads(knob.key);
            if !read && knob.render(spec).is_some() {
                let mut takers = self.names(Some(knob.key));
                if !takers.is_empty() {
                    takers = format!(" (taken by: {takers})");
                }
                return Err(PartitionError::InvalidConfig(format!(
                    "{}= ({}) does not apply to {} '{}'{takers}",
                    knob.key, knob.help, self.kind, entry.name
                )));
            }
        }
        Ok(entry)
    }
}
