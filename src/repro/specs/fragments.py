"""Hand-built fragments from the paper's figures, plus the chainable
handshake fragments the random generator composes.

* :func:`fig8_sg` -- the SG fragment of Fig. 8 (choice + concurrency) on
  which ``FwdRed(a, b)`` removes the concurrency of ``a`` with ``b``, ``d``
  *and* ``e`` in a single step;
* :func:`fig6_spec` -- the mixed specification of Fig. 6: one channel, one
  partially specified signal, one completely specified signal;
* :class:`HandshakeFragment` and its shapes -- declarative live-safe
  pipeline stages (``link``, ``fifo``, ``micropipeline``) that
  :mod:`repro.specs.generate` chains with
  :func:`repro.petri.compose.compose_all`: stage *i*'s right channel is
  stage *i+1*'s left channel, so any shape sequence composes into one
  closed speed-independent control.
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

from ..hse.spec import ChannelRole, PartialSpec
from ..petri.stg import STG, Direction, SignalEvent, SignalKind
from ..sg.graph import StateGraph


def fig8_sg() -> StateGraph:
    """The Fig. 8 SG fragment.

    Events ``a``, ``b``, ``d``, ``e`` plus the choice event ``g`` (the
    figure's non-persistent branch) and the prefix event ``c``.  ``a`` is
    concurrent with ``d``, ``e`` and ``b``; ``b`` is only enabled at the
    end, so the backward reachability in ``FwdRed(a, b)`` truncates the
    whole excitation region of ``a`` except its final state.
    """
    sg = StateGraph("fig8")
    for signal in ("a", "b", "c", "d", "e", "g"):
        sg.declare_signal(signal, SignalKind.OUTPUT)
        sg.declare_event(signal, SignalEvent(signal, Direction.RISE))
    sg.add_state("s0")
    sg.add_arc("s0", "c", "s1")
    # diamond a || d
    sg.add_arc("s1", "a", "s2")
    sg.add_arc("s1", "d", "s3")
    sg.add_arc("s2", "d", "s4")
    sg.add_arc("s3", "a", "s4")
    # diamond a || e (e follows d)
    sg.add_arc("s3", "e", "s5")
    sg.add_arc("s4", "e", "s6")
    sg.add_arc("s5", "a", "s6")
    # diamond a || b (b follows e)
    sg.add_arc("s5", "b", "s7")
    sg.add_arc("s6", "b", "s8")
    sg.add_arc("s7", "a", "s8")
    # the non-persistent choice: g competes with a and d at s1
    sg.add_arc("s1", "g", "t1")
    return sg.freeze()


def fig6_spec() -> PartialSpec:
    """Fig. 6.a: channel ``a``, partial signal ``b``, full signal ``c``.

    The cycle ``a! ; b ; c+ ; a? ; b ; c-`` uses the channel in both roles
    (active then passive within one iteration), which is why its expansion
    relies on the role-free return-to-zero structure of Fig. 5.c.
    """
    spec = PartialSpec("fig6")
    spec.declare_channel("a", ChannelRole.FREE)
    spec.declare_partial_signal("b", SignalKind.OUTPUT)
    spec.declare_signal("c", SignalKind.OUTPUT)
    first_b = spec.add("b")
    second_b = spec.add("b/1")
    for event in ("a!", "c+", "a?", "c-"):
        spec.add(event)
    spec.chain("a!", first_b, "c+", "a?", second_b, "c-")
    spec.connect("c-", "a!")
    spec.mark("<c-,a!>")
    return spec


# ----------------------------------------------------------------------
# chainable handshake fragments (the generator's building blocks)
# ----------------------------------------------------------------------

#: Symbolic channel events a fragment's structure may reference and the
#: signal they resolve to at stage ``i``.  The left channel of stage i is
#: the right channel of stage i-1, which is what makes shapes chainable.
_CHANNEL_SIGNALS = {
    "l.req": ("r{i}", SignalKind.INPUT),
    "l.ack": ("a{i}", SignalKind.OUTPUT),
    "r.req": ("r{j}", SignalKind.OUTPUT),
    "r.ack": ("a{j}", SignalKind.INPUT),
}


class HandshakeFragment:
    """One chainable stage of a live-safe handshake pipeline.

    A subclass *is* its structure, declared the way CarlAdam nets spell
    out ``Structure.arcs``: ``arcs`` connects symbolic channel events
    (``l.req+``, ``r.ack-``, ...) and internal places, ``marked`` names
    the arcs or places holding the initial tokens.  Every shape is a
    strongly connected net whose cycles each carry exactly one token, so
    each stage -- and by the fusion rule of
    :func:`~repro.petri.compose.compose`, any chain of stages -- is live,
    1-safe and consistent with all signals initially low.

    :meth:`build` instantiates stage ``i``: ``l.req``/``l.ack`` become
    ``r{i}``/``a{i}``, ``r.req``/``r.ack`` become ``r{i+1}``/``a{i+1}``,
    internal places and signals are suffixed with the stage index.
    """

    #: The registry key (also the derivation-trace spelling).
    shape: str = ""
    #: (source, target) pairs over symbolic events / internal places.
    arcs: Tuple[Tuple[str, str], ...] = ()
    #: Tokens: an internal place name, or an (event, event) arc.
    marked: Tuple[object, ...] = ()
    #: Internal places, instantiated per stage.
    places: Tuple[str, ...] = ()
    #: Internal signals (stem -> kind), instantiated per stage.
    internal_signals: Dict[str, SignalKind] = {}

    def _signal(self, symbol: str, index: int) -> Tuple[str, SignalKind]:
        channel = _CHANNEL_SIGNALS.get(symbol)
        if channel is not None:
            template, kind = channel
            return template.format(i=index, j=index + 1), kind
        stem = symbol.split(".", 1)[0]
        if stem in self.internal_signals:
            return f"{stem}{index}", self.internal_signals[stem]
        raise KeyError(f"fragment {self.shape!r} references unknown "
                       f"signal symbol {symbol!r}")

    def _node(self, symbol: str, index: int, stg: STG) -> str:
        """Resolve a symbolic event/place to a concrete node name."""
        if symbol in self.places:
            return f"{symbol}{index}"
        base, direction = symbol[:-1], symbol[-1]
        signal, kind = self._signal(base, index)
        stg.declare_signal(signal, kind)
        stg.set_initial_value(signal, 0)
        return stg.add_event(f"{signal}{direction}")

    def build(self, index: int) -> STG:
        """Instantiate this shape as pipeline stage ``index``."""
        stg = STG(f"{self.shape}{index}")
        for place in self.places:
            stg.net.add_place(f"{place}{index}")
        for source, target in self.arcs:
            stg.connect(self._node(source, index, stg),
                        self._node(target, index, stg))
        for token in self.marked:
            if isinstance(token, str):
                stg.mark(f"{token}{index}")
            else:
                source, target = (self._node(symbol, index, stg)
                                  for symbol in token)
                stg.mark(f"<{source},{target}>")
        return stg


class LinkFragment(HandshakeFragment):
    """The minimal chainable stage: the left request *is* the handshake.

    Two signals, four transitions -- the smallest live-safe cell the
    shrinker can reduce a chain to.
    """

    shape = "link"
    arcs = (
        ("l.req+", "r.req+"),
        ("r.req+", "l.req-"),
        ("l.req-", "r.req-"),
        ("r.req-", "l.req+"),
    )
    marked = (("r.req-", "l.req+"),)


class FifoFragment(HandshakeFragment):
    """A one-place FIFO stage: strictly sequential 4-phase handshakes."""

    shape = "fifo"
    arcs = (
        ("l.req+", "l.ack+"),
        ("l.ack+", "l.req-"),
        ("l.req-", "l.ack-"),
        ("l.ack-", "r.req+"),
        ("r.req+", "r.ack+"),
        ("r.ack+", "r.req-"),
        ("r.req-", "r.ack-"),
        ("r.ack-", "l.req+"),
    )
    marked = (("r.ack-", "l.req+"),)


class MicropipelineFragment(HandshakeFragment):
    """A micropipeline control stage: decoupled handshakes with an
    explicit full/empty capacity place, the chain's concurrency source."""

    shape = "micropipeline"
    places = ("full", "empty")
    arcs = (
        ("l.req+", "l.ack+"),
        ("l.ack+", "l.req-"),
        ("l.req-", "l.ack-"),
        ("l.ack-", "l.req+"),
        ("l.ack+", "full"),
        ("full", "r.req+"),
        ("r.req+", "empty"),
        ("empty", "l.ack+"),
        ("r.req+", "r.ack+"),
        ("r.ack+", "r.req-"),
        ("r.req-", "r.ack-"),
        ("r.ack-", "r.req+"),
    )
    marked = (("l.ack-", "l.req+"), ("r.ack-", "r.req+"), "empty")


#: Shape registry, simplest first -- the order the shrinker simplifies
#: toward (``micropipeline`` -> ``fifo`` -> ``link``).
FRAGMENT_SHAPES: Dict[str, Type[HandshakeFragment]] = {
    "link": LinkFragment,
    "fifo": FifoFragment,
    "micropipeline": MicropipelineFragment,
}

#: Every strictly simpler shape for each shape, simplest last -- the
#: shrinker offers them all, so it can jump straight down the ladder.
SIMPLER_SHAPE: Dict[str, Tuple[str, ...]] = {
    "micropipeline": ("fifo", "link"),
    "fifo": ("link",),
}


def build_fragment(shape: str, index: int) -> STG:
    """Instantiate ``shape`` as pipeline stage ``index``."""
    try:
        cls = FRAGMENT_SHAPES[shape]
    except KeyError:
        raise KeyError(f"unknown fragment shape {shape!r}; expected one "
                       f"of {sorted(FRAGMENT_SHAPES)}") from None
    return cls().build(index)
