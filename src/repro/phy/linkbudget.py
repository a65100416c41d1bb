"""Link budget: from transmit power and geometry to SINR.

This glues the pieces together: a :class:`Radio` (power, gains, noise
figure, height) and a median propagation model combine into a received
power, an SNR, and (over arrays of peers, for the UE arena) an SINR
against a set of interfering transmitters. The §3.2 uplink
asymmetry appears here: LTE's SC-FDMA single-carrier uplink runs the PA
~3 dB closer to saturation than OFDM can (PAPR backoff), which we model
as an ``ul_papr_advantage_db`` credit on LTE client radios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, ClassVar, Dict, Sequence

import numpy as np

from repro.geo.points import Point
from repro.phy.propagation import PropagationModel
from repro.phy.units import db_to_linear, linear_to_db, thermal_noise_dbm
from repro.phy.vmath import db_to_linear_exact, hypot_exact, log10_exact


@lru_cache(maxsize=512)
def _thermal_noise_cached(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Noise floors recur per (bandwidth, NF): skip the log10 on repeats."""
    return thermal_noise_dbm(bandwidth_hz, noise_figure_db)


#: Entries a budget's path-loss memo may hold; it is cleared on reaching
#: this. Each ``Cell.rsrp_to`` of a moved radio adds a distance that
#: never recurs, while the largest memo any experiment builds at its
#: published defaults is 616 (E17).
_LOSS_CACHE_MAX = 4096


class Watched:
    """Mixin: assigning any attribute runs the object's watchers.

    A watcher is a zero-argument callable, run after the store whatever
    the value: it records *that* something was written, and its owner
    decides later whether anything changed. Watchers are not dataclass
    fields, so equality, ``repr`` and ``dataclasses.replace`` never see
    them, and pickle and ``copy`` leave them behind: a copy is equal
    field for field and watched by nobody.

    Every attribute of a watched class must be a plain instance
    attribute (no slots, no property setters): the store goes straight
    into ``__dict__``, a third cheaper than ``object.__setattr__`` on a
    path a moving UE takes every TTI.
    """

    _watchers: ClassVar[Sequence[Callable[[], object]]] = ()

    def __setattr__(self, name: str, value: object) -> None:
        self.__dict__[name] = value
        for mark in self._watchers:
            mark()

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_watchers"}

    def watch(self, mark: Callable[[], object]) -> None:
        self.__dict__.setdefault("_watchers", []).append(mark)

    def unwatch(self, mark: Callable[[], object]) -> None:
        self._watchers.remove(mark)


@dataclass
class Radio(Watched):
    """One end of a radio link.

    Assignment is the only way a radio changes (``Point`` is frozen),
    and every assignment runs the radio's watchers (see
    :class:`Watched`): that is how a cell's UE arena learns that a row's
    inputs moved without polling them.

    Attributes:
        position: location on the plane.
        tx_power_dbm: conducted transmit power.
        antenna_gain_dbi: omnidirectional antenna gain (applies both ways).
        noise_figure_db: receiver noise figure.
        height_m: antenna height above ground.
        cable_loss_db: feeder loss between PA and antenna.
        ul_papr_advantage_db: extra usable PA headroom for single-carrier
            uplinks (SC-FDMA); 0 for OFDM clients.
    """

    position: Point
    tx_power_dbm: float = 23.0
    antenna_gain_dbi: float = 0.0
    noise_figure_db: float = 7.0
    height_m: float = 1.5
    cable_loss_db: float = 0.0
    ul_papr_advantage_db: float = 0.0

    @property
    def eirp_dbm(self) -> float:
        """Effective isotropic radiated power."""
        return (self.tx_power_dbm + self.ul_papr_advantage_db
                + self.antenna_gain_dbi - self.cable_loss_db)


@dataclass
class LinkBudget:
    """A configured point-to-point budget evaluator.

    Bundles the propagation model, frequency and bandwidth so callers
    evaluate links with one call::

        lb = LinkBudget(model, freq_mhz=881.5, bandwidth_hz=10e6)
        snr = lb.snr_db(ap_radio, ue_radio)
    """

    model: PropagationModel
    freq_mhz: float
    bandwidth_hz: float
    #: median-loss memo keyed by distance — propagation models are pure,
    #: and stationary links re-evaluate the same distances every TTI
    _loss_cache: Dict[float, float] = field(default_factory=dict, repr=False,
                                            compare=False)

    def path_loss_db(self, distance_m: float) -> float:
        """Median loss at ``distance_m``, memoized."""
        cache = self._loss_cache
        loss = cache.get(distance_m)
        if loss is None:
            loss = self.model.path_loss_db(distance_m, self.freq_mhz)
            if len(cache) >= _LOSS_CACHE_MAX:
                cache.clear()
            cache[distance_m] = loss
        return loss

    def rx_power_dbm(self, tx: Radio, rx: Radio) -> float:
        """Received power from ``tx`` at ``rx``."""
        dist = tx.position.distance_to(rx.position)
        loss = self.path_loss_db(dist)
        tx_eirp = (tx.tx_power_dbm + tx.ul_papr_advantage_db
                   + tx.antenna_gain_dbi - tx.cable_loss_db)
        return (tx_eirp - loss + rx.antenna_gain_dbi - rx.cable_loss_db)

    def noise_dbm(self, rx: Radio) -> float:
        """Noise floor at ``rx`` over the configured bandwidth."""
        return _thermal_noise_cached(self.bandwidth_hz, rx.noise_figure_db)

    def snr_db(self, tx: Radio, rx: Radio) -> float:
        """Signal-to-noise ratio (no interference term)."""
        return self.rx_power_dbm(tx, rx) - self.noise_dbm(rx)

    def snr_db_grid(self, tx: Radio, rx_template: Radio,
                    distances_m: Sequence[float]) -> np.ndarray:
        """Vectorized SNR over a distance grid.

        The receiver described by ``rx_template`` is swept along +x from
        the transmitter; the whole grid is one vectorized path-loss
        evaluation (E3's sweep and bisections).
        """
        losses = self.model.path_loss_db_many(distances_m, self.freq_mhz)
        tx_eirp = (tx.tx_power_dbm + tx.ul_papr_advantage_db
                   + tx.antenna_gain_dbi - tx.cable_loss_db)
        fixed = (tx_eirp + rx_template.antenna_gain_dbi
                 - rx_template.cable_loss_db
                 - self.noise_dbm(rx_template))
        return fixed - losses

    # -- UE-arena fast paths -----------------------------------------------------
    #
    # The methods below evaluate one fixed endpoint against arrays of
    # peers in a single pass, *bit-identically* to the per-link scalar
    # evaluators of the test oracle under ``tests/reference/``: distances
    # via the libm hypot map, loss via the model's ``path_loss_db_many``,
    # and dB<->linear conversions via the libm element maps (see
    # ``repro.phy.vmath``).

    def rx_power_dbm_fixed_tx_many(self, tx: Radio,
                                   rx_x: np.ndarray, rx_y: np.ndarray,
                                   rx_gain_dbi: np.ndarray,
                                   rx_cable_db: np.ndarray) -> np.ndarray:
        """Received power from one transmitter at many receivers (the
        downlink/interference direction of the UE arena)."""
        dist = hypot_exact(tx.position.x - rx_x, tx.position.y - rx_y)
        loss = self.model.path_loss_db_many(dist, self.freq_mhz)
        tx_eirp = (tx.tx_power_dbm + tx.ul_papr_advantage_db
                   + tx.antenna_gain_dbi - tx.cable_loss_db)
        return tx_eirp - loss + rx_gain_dbi - rx_cable_db

    def sinr_db_fixed_tx_many(self, tx: Radio,
                              rx_x: np.ndarray, rx_y: np.ndarray,
                              rx_gain_dbi: np.ndarray,
                              rx_cable_db: np.ndarray,
                              noise_dbm_arr: np.ndarray,
                              interferers: Sequence[Radio]) -> np.ndarray:
        """Downlink SINR at many receivers with vectorized interference
        summation.

        The interference accumulation follows the scalar path's order —
        noise first, then each interferer in sequence — so the float
        result matches the oracle's per-link SINR bit for bit.
        """
        signal = self.rx_power_dbm_fixed_tx_many(tx, rx_x, rx_y,
                                                 rx_gain_dbi, rx_cable_db)
        denom_mw = db_to_linear_exact(noise_dbm_arr)
        for interferer in interferers:
            if interferer is tx:
                continue
            i_dbm = self.rx_power_dbm_fixed_tx_many(
                interferer, rx_x, rx_y, rx_gain_dbi, rx_cable_db)
            denom_mw = denom_mw + db_to_linear_exact(i_dbm)
        return signal - (10.0 * log10_exact(denom_mw))

    def rx_power_dbm_many_tx_fixed_rx(self, tx_x: np.ndarray,
                                      tx_y: np.ndarray,
                                      tx_power_dbm: np.ndarray,
                                      tx_papr_db: np.ndarray,
                                      tx_gain_dbi: np.ndarray,
                                      tx_cable_db: np.ndarray,
                                      rx: Radio) -> np.ndarray:
        """Received power at one receiver from many transmitters (the
        uplink direction of the UE arena)."""
        dist = hypot_exact(tx_x - rx.position.x, tx_y - rx.position.y)
        loss = self.model.path_loss_db_many(dist, self.freq_mhz)
        tx_eirp = tx_power_dbm + tx_papr_db + tx_gain_dbi - tx_cable_db
        return (tx_eirp - loss + rx.antenna_gain_dbi - rx.cable_loss_db)

    def sinr_db_many_tx_fixed_rx(self, tx_x: np.ndarray, tx_y: np.ndarray,
                                 tx_power_dbm: np.ndarray,
                                 tx_papr_db: np.ndarray,
                                 tx_gain_dbi: np.ndarray,
                                 tx_cable_db: np.ndarray,
                                 rx: Radio) -> np.ndarray:
        """Uplink SINR at one receiver from many transmitters; no uplink
        interferer is modelled, so only the noise floor is subtracted."""
        signal = self.rx_power_dbm_many_tx_fixed_rx(
            tx_x, tx_y, tx_power_dbm, tx_papr_db, tx_gain_dbi, tx_cable_db, rx)
        # replicate the scalar dB -> mW -> dB round trip on the noise floor
        return signal - linear_to_db(db_to_linear(self.noise_dbm(rx)))
