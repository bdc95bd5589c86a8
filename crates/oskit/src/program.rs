//! The simulated-application programming model.
//!
//! A [`Program`] is a poll-style state machine: the scheduler calls
//! [`Program::step`] whenever its thread is runnable, the program makes
//! syscalls through the [`crate::Kernel`] facade, and returns a [`Step`]
//! telling the scheduler what it is doing next. All persistent control state
//! lives inside the program struct and must round-trip through
//! [`Program::save`] / a [`Registry`] loader — that is the simulated
//! equivalent of a thread's registers and stack, and it is all the
//! checkpointer ever sees of an application.

use crate::kernel::Kernel;
use simkit::{Nanos, SnapError};
use std::any::Any;
use std::collections::BTreeMap;

/// What a thread does after returning from `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Occupy a CPU core for this many work units, then step again.
    Compute(u64),
    /// Step again as soon as possible (after the scheduler quantum).
    Yield,
    /// Wait until a kernel object wakes this thread (a `WouldBlock` syscall
    /// in this step registered the waker).
    Block,
    /// Sleep for a fixed interval, then step again.
    Sleep(Nanos),
    /// Terminate this thread only (`pthread_exit`); the process exits with
    /// code 0 when its last thread does.
    ExitThread,
    /// Terminate the whole process with this exit code (`exit`).
    Exit(i32),
}

/// A simulated application (or daemon, or checkpoint-manager) thread body.
/// `Any` lets a layer read its own daemon's state in place through
/// [`crate::world::World::program`].
pub trait Program: Any {
    /// Advance the state machine by one step.
    fn step(&mut self, k: &mut Kernel<'_>) -> Step;

    /// Registry key identifying the program's *code* — the analogue of the
    /// executable path stored in a checkpoint image.
    fn tag(&self) -> &'static str;

    /// Serialize the complete control state (registers + stack analogue).
    fn save(&self) -> Vec<u8>;

    /// Deliver an asynchronous signal. Default: ignore (SIG_DFL for
    /// non-fatal signals in this model).
    fn on_signal(&mut self, _sig: u8) {}
}

/// Loader function reconstructing a program from its saved state.
pub type Loader = fn(&[u8]) -> Result<Box<dyn Program>, SnapError>;

/// Maps program tags to loaders — the analogue of executables still being
/// present on disk at restart time.
#[derive(Default, Clone)]
pub struct Registry {
    loaders: BTreeMap<&'static str, Loader>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Register a loader under `tag`. Registering two different loaders
    /// under one tag is a build error in disguise; panic loudly.
    pub fn register(&mut self, tag: &'static str, loader: Loader) {
        if self.loaders.insert(tag, loader).is_some() {
            panic!("duplicate program tag {tag:?} in registry");
        }
    }

    /// Register a `Program + Snap` type under its own tag.
    pub fn register_snap<P>(&mut self, tag: &'static str)
    where
        P: Program + simkit::Snap,
    {
        fn load<P: Program + simkit::Snap>(bytes: &[u8]) -> Result<Box<dyn Program>, SnapError> {
            Ok(Box::new(P::from_snap_bytes(bytes)?))
        }
        self.register(tag, load::<P>);
    }

    /// Reconstruct a program from `(tag, state)`.
    pub fn load(&self, tag: &str, state: &[u8]) -> Result<Box<dyn Program>, RegistryError> {
        let loader = self
            .loaders
            .get(tag)
            .ok_or_else(|| RegistryError::UnknownTag(tag.to_string()))?;
        loader(state).map_err(RegistryError::Corrupt)
    }

    /// Whether `tag` is known.
    pub fn knows(&self, tag: &str) -> bool {
        self.loaders.contains_key(tag)
    }
}

/// Errors reconstructing programs at restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No loader for this tag — the "executable" is missing on the restart
    /// host.
    UnknownTag(String),
    /// The saved state failed to decode.
    Corrupt(SnapError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTag(t) => write!(f, "no program registered for tag {t:?}"),
            RegistryError::Corrupt(e) => write!(f, "program state corrupt: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Placeholder swapped into a thread slot while its real program is being
/// stepped (the world cannot hold two `&mut` into itself).
pub struct Tombstone;

impl Program for Tombstone {
    fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
        unreachable!("tombstone program stepped — reentrant dispatch bug")
    }
    fn tag(&self) -> &'static str {
        "__tombstone__"
    }
    fn save(&self) -> Vec<u8> {
        unreachable!("tombstone program saved — checkpoint raced a dispatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::impl_snap;

    struct Null {
        n: u64,
    }
    impl_snap!(struct Null { n });
    impl Program for Null {
        fn step(&mut self, _k: &mut Kernel<'_>) -> Step {
            Step::Exit(0)
        }
        fn tag(&self) -> &'static str {
            "null"
        }
        fn save(&self) -> Vec<u8> {
            use simkit::Snap;
            self.to_snap_bytes()
        }
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = Registry::new();
        reg.register_snap::<Null>("null");
        assert!(reg.knows("null"));
        let p = Null { n: 77 };
        let loaded = reg.load("null", &p.save()).unwrap();
        assert_eq!(loaded.tag(), "null");
    }

    #[test]
    fn unknown_tag_is_an_error() {
        let reg = Registry::new();
        match reg.load("ghost", &[]) {
            Err(RegistryError::UnknownTag(t)) => assert_eq!(t, "ghost"),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("unexpectedly loaded a ghost program"),
        }
    }

    #[test]
    fn corrupt_state_is_an_error() {
        let mut reg = Registry::new();
        reg.register_snap::<Null>("null");
        assert!(matches!(
            reg.load(
                "null",
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]
            ),
            Err(RegistryError::Corrupt(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate program tag")]
    fn duplicate_registration_panics() {
        let mut reg = Registry::new();
        reg.register_snap::<Null>("null");
        reg.register_snap::<Null>("null");
    }
}
