"""Calibrated synthetic Ethereum history generator.

This module substitutes for the paper's real trace (see DESIGN.md §2).
It drives the full substrate — world state, EVM-lite, blocks, chain —
to produce a transaction history whose *statistical shape* matches the
published characteristics of the Aug-2015 → Jan-2018 Ethereum trace:

* **growth phases** (paper Fig. 1): transaction intensity grows
  exponentially from genesis to the autumn-2016 attack, bursts during
  the attack window, then grows superlinearly through the 2017 boom;
* **the DoS attack** (Sep–Oct 2016): a flood of transactions touching
  throwaway accounts that are never used again — the cause of the
  METIS dynamic-balance anomaly the paper highlights;
* **hub structure**: token contracts, exchanges, mixers and wallets
  accumulate heavy-tailed degree via preferential attachment;
* **community structure**: accounts cluster around dApp ecosystems
  (most interactions stay within a community, a minority bridges) —
  this is what gives cut-minimising partitioners something to find,
  and it grows over time as new ecosystems appear;
* **internal calls**: contract programs fan out into nested message
  calls, so single transactions produce multiple graph edges, as in
  the paper's Fig. 2 subgraph.

Every transaction is genuinely executed by EVM-lite; graph interactions
come out of the message-call traces, never from shortcuts.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ethereum import contracts as programs
from repro.ethereum.chain import Blockchain
from repro.ethereum.history import ATTACK_END, ATTACK_START, STUDY_DAYS
from repro.ethereum.state import WorldState
from repro.ethereum.trace import TransactionTrace
from repro.ethereum.transaction import Transaction
from repro.ethereum.types import Address, Wei
from repro.graph.builder import GraphBuilder, Interaction
from repro.graph.digraph import WeightedDiGraph
from repro.graph.snapshot import DAY, HOUR


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """Knobs of the synthetic history.

    The defaults produce a laptop-scale run (~60k transactions, ~25k
    accounts) with the full 886-day timeline.  Use :meth:`small` for
    integration tests and :meth:`tiny` for smoke tests; scale is linear
    in ``total_transactions``.
    """

    seed: int = 42
    total_transactions: int = 60_000
    step_hours: float = 4.0
    start_ts: float = 0.0
    end_ts: float = STUDY_DAYS * DAY

    # growth shape (relative intensities; absolute scale comes from
    # total_transactions)
    preattack_growth_ratio: float = 40.0   # intensity(attack) / intensity(genesis)
    attack_multiplier: float = 6.0         # burst factor during the attack window
    postattack_final_ratio: float = 8.0    # intensity(end) / intensity(attack end)
    postattack_power: float = 1.35         # superlinearity of the 2017 boom

    # transaction mixture (normal periods; renormalised internally)
    mix_transfer: float = 0.40
    mix_token: float = 0.28
    mix_exchange: float = 0.12
    mix_mixer: float = 0.04
    mix_wallet: float = 0.06
    mix_deploy: float = 0.02

    # population dynamics
    p_new_recipient: float = 0.25    # transfers that mint a fresh account
    p_new_sender: float = 0.08       # txs sent from a freshly funded account
    p_preferential: float = 0.75     # weight of preferential vs uniform pick
    attack_spam_fraction: float = 0.80
    spam_fanout: int = 4

    # community structure
    p_intra_community: float = 0.85  # interactions that stay in-community
    community_interval_days: float = 45.0  # a new ecosystem roughly monthly+
    max_communities: int = 48
    p_inherit_community: float = 0.90  # fresh recipient joins sender's community

    # economics
    initial_balance: Wei = 10**15
    gas_price: Wei = 1
    use_eras: bool = True   # fork-dependent gas repricing (EIP-150)

    # bootstrap population
    bootstrap_eoas: int = 24
    bootstrap_tokens: int = 2
    bootstrap_exchanges: int = 1

    @classmethod
    def tiny(cls, seed: int = 42) -> "WorkloadConfig":
        """~600 transactions over 60 days — for smoke tests."""
        return cls(
            seed=seed,
            total_transactions=600,
            end_ts=60 * DAY,
            step_hours=12.0,
        )

    @classmethod
    def small(cls, seed: int = 42) -> "WorkloadConfig":
        """~6k transactions over the full timeline — for integration
        tests and quick benchmark runs."""
        return cls(seed=seed, total_transactions=6_000, step_hours=24.0)

    @classmethod
    def medium(cls, seed: int = 42) -> "WorkloadConfig":
        """~24k transactions, 8-hour steps — the default for figures."""
        return cls(seed=seed, total_transactions=24_000, step_hours=8.0)

    @classmethod
    def large(cls, seed: int = 42) -> "WorkloadConfig":
        """~2M transactions, 1-hour steps — the Ethereum-scale export
        tier (multi-million interaction rows over the full timeline).

        This tier exists to *emit traces*, not to hold a log in
        memory: drive it through
        :func:`repro.ethereum.export.export_workload_trace`, which
        streams interactions into a chunked rctrace writer instead of
        appending them to the :class:`~repro.graph.builder.GraphBuilder`
        log.
        """
        return cls(seed=seed, total_transactions=2_000_000, step_hours=1.0)

    def mixture(self) -> Dict[str, float]:
        """Normalised transaction-type mixture for normal periods."""
        raw = {
            "transfer": self.mix_transfer,
            "token": self.mix_token,
            "exchange": self.mix_exchange,
            "mixer": self.mix_mixer,
            "wallet": self.mix_wallet,
            "deploy": self.mix_deploy,
        }
        total = sum(raw.values())
        if total <= 0:
            raise ValueError("transaction mixture weights must sum to > 0")
        return {k: v / total for k, v in raw.items()}


@dataclasses.dataclass
class WorkloadResult:
    """Everything the generator produced."""

    config: WorkloadConfig
    builder: GraphBuilder
    chain: Blockchain

    @functools.cached_property
    def graph(self) -> WeightedDiGraph:
        """The cumulative graph of the whole history (built on first
        read; the log does not grow after :meth:`WorkloadGenerator.run`)."""
        return self.builder.graph

    @property
    def num_transactions(self) -> int:
        return self.chain.total_transactions

    @property
    def state(self) -> WorldState:
        return self.chain.state


@dataclasses.dataclass
class _Community:
    """One dApp ecosystem: its members, hubs and activity multiset."""

    index: int
    eoas: List[Address] = dataclasses.field(default_factory=list)
    activity: List[Address] = dataclasses.field(default_factory=list)
    hubs: Dict[str, List[Address]] = dataclasses.field(
        default_factory=lambda: {"token": [], "exchange": [], "mixer": [], "wallet": []}
    )


# gas limits generous enough that well-formed workload txs never OOG
_GAS_LIMITS = {
    "transfer": 25_000,
    "token": 110_000,
    "exchange": 160_000,
    "mixer": 260_000,
    "wallet": 130_000,
    "deploy": 120_000,
    "spam": 120_000,
    "activate": 120_000,
}

_HUB_PROGRAMS = {
    "token": programs.token_code,
    "exchange": programs.exchange_code,
    "mixer": programs.mixer_code,
    "wallet": programs.wallet_code,
}


class WorkloadGenerator:
    """Drives the chain to produce the synthetic history.

    ``interaction_sink`` redirects the generated interaction stream:
    when set, every interaction is handed to the callable (in time
    order) *instead of* being appended to the log of :attr:`builder`,
    so the generator runs in bounded memory — chain state and community
    registries only, no log.  The stream is identical either way: the
    sink replaces only the storage, never the RNG-driven generation
    path.  This is the Ethereum-scale trace ingestion hook
    (:func:`repro.ethereum.export.export_workload_trace`).
    """

    def __init__(
        self,
        config: WorkloadConfig,
        interaction_sink: Optional[Callable[[Interaction], None]] = None,
    ):
        self.config = config
        self.rng = random.Random(config.seed)
        self.state = WorldState()
        self.builder = GraphBuilder()
        self._interaction_sink = interaction_sink
        self.chain = Blockchain(
            self.state, trace_sink=self._on_trace, keep_traces=False
        )
        self.chain.evm.use_eras = config.use_eras
        self._tmpl_dummy = self.chain.evm.register_template(programs.dummy_code())

        # community registries
        self.communities: List[_Community] = [_Community(0)]
        self.community_of: Dict[Address, int] = {}
        # flat registries (fallbacks and bookkeeping)
        self.eoas: List[Address] = []
        self.hubs: Dict[str, List[Address]] = {
            "token": [], "exchange": [], "mixer": [], "wallet": []
        }
        self.spammers: List[Address] = []
        self.spammers_senders: List[Address] = []
        self._eoa_index: set = set()
        self._hub_kind: Dict[Address, str] = {}

        self._next_tx_id = 0
        self.miner = self._new_eoa(funded=True, timestamp=0.0, community=0)

    # ------------------------------------------------------------------
    # population helpers

    def _ensure_communities(self, ts: float) -> None:
        """Grow the ecosystem count with time (new dApp waves)."""
        want = min(
            self.config.max_communities,
            1 + int(ts / (self.config.community_interval_days * DAY)),
        )
        while len(self.communities) < want:
            self.communities.append(_Community(len(self.communities)))

    def _pick_community(self) -> _Community:
        """Community for a brand-new actor: uniform over existing ones
        (keeps ecosystems comparable in size)."""
        return self.rng.choice(self.communities)

    def _new_eoa(self, funded: bool, timestamp: float, community: Optional[int] = None) -> Address:
        balance = self.config.initial_balance if funded else 0
        acct = self.state.create_eoa(balance=balance, timestamp=timestamp)
        self.state.discard_journal()
        addr = acct.address
        comm = self._pick_community().index if community is None else community
        self.community_of[addr] = comm
        self.communities[comm].eoas.append(addr)
        self.eoas.append(addr)
        self._eoa_index.add(addr)
        return addr

    def _deploy_hub(
        self,
        kind: str,
        timestamp: float,
        community: int,
        initial_storage: Optional[Dict[int, int]] = None,
    ) -> Address:
        acct = self.state.create_contract(
            _HUB_PROGRAMS[kind](), timestamp=timestamp, initial_storage=initial_storage
        )
        self.state.discard_journal()
        addr = acct.address
        self.community_of[addr] = community
        self.communities[community].hubs[kind].append(addr)
        self.hubs[kind].append(addr)
        self._hub_kind[addr] = kind
        return addr

    def _community_for_tx(self, sender: Address) -> _Community:
        """The community a transaction plays out in: the sender's, with
        probability ``p_intra_community``; otherwise a random one (the
        bridging minority that creates inter-community edges)."""
        if self.rng.random() < self.config.p_intra_community:
            return self.communities[self.community_of[sender]]
        return self._pick_community()

    def _pick_eoa(self, community: Optional[_Community] = None) -> Address:
        """An existing EOA, preferentially by past activity.

        The activity multiset also holds contract endpoints, so a
        bounded rejection loop keeps only EOAs (contracts must not
        receive plain transfers: their code would run with a
        transfer-sized gas budget and fail).
        """
        rng = self.rng
        if community is not None:
            if community.activity and rng.random() < self.config.p_preferential:
                for _ in range(8):
                    cand = rng.choice(community.activity)
                    if cand in self._eoa_index:
                        return cand
            if community.eoas:
                return rng.choice(community.eoas)
        # global fallback
        comm = self.rng.choice(self.communities)
        if comm.activity and rng.random() < self.config.p_preferential:
            for _ in range(8):
                cand = rng.choice(comm.activity)
                if cand in self._eoa_index:
                    return cand
        return rng.choice(self.eoas)

    def _pick_sender(self, timestamp: float) -> Address:
        """A funded sender; occasionally a brand-new funded account."""
        if self.rng.random() < self.config.p_new_sender:
            return self._new_eoa(funded=True, timestamp=timestamp)
        addr = self._pick_eoa(self._pick_community())
        acct = self.state.get(addr)
        if acct.balance < 10**9:
            # never-funded recipient account: top it up out of band
            # (faucet semantics — stands in for an exchange withdrawal)
            self.state.add_balance(addr, self.config.initial_balance)
            self.state.discard_journal()
        return addr

    def _pick_hub(self, kind: str, community: _Community) -> Address:
        """A hub of ``kind``, from the community when it has one."""
        local = community.hubs[kind]
        if local:
            # preferential within the community: recent activity first
            rng = self.rng
            if rng.random() < self.config.p_preferential:
                for _ in range(8):
                    cand = rng.choice(community.activity) if community.activity else None
                    if cand is not None and self._hub_kind.get(cand) == kind:
                        return cand
            return rng.choice(local)
        return self.rng.choice(self.hubs[kind])

    # ------------------------------------------------------------------
    # trace sink

    def _on_trace(self, trace: TransactionTrace) -> None:
        sink = self._interaction_sink
        for interaction in trace.to_interactions():
            if sink is not None:
                sink(interaction)
            else:
                self.builder.add(interaction)
            for endpoint in (interaction.src, interaction.dst):
                comm_idx = self.community_of.get(endpoint)
                if comm_idx is not None:
                    self.communities[comm_idx].activity.append(endpoint)

    # ------------------------------------------------------------------
    # transaction builders

    def _fresh_tx_id(self) -> int:
        tid = self._next_tx_id
        self._next_tx_id += 1
        return tid

    def _base_tx(
        self,
        sender: Address,
        to: Address,
        kind: str,
        pending: Dict[Address, int],
        value: Wei = 0,
        data: Tuple[int, ...] = (),
    ) -> Transaction:
        nonce = self.state.get(sender).nonce + pending.get(sender, 0)
        pending[sender] = pending.get(sender, 0) + 1
        return Transaction(
            tx_id=self._fresh_tx_id(),
            sender=sender,
            to=to,
            value=value,
            gas_limit=_GAS_LIMITS[kind],
            gas_price=self.config.gas_price,
            nonce=nonce,
            data=data,
        )

    def _tx_transfer(self, ts: float, pending: Dict[Address, int]) -> Transaction:
        sender = self._pick_sender(ts)
        community = self._community_for_tx(sender)
        if self.rng.random() < self.config.p_new_recipient:
            if self.rng.random() < self.config.p_inherit_community:
                comm = community.index
            else:
                comm = self._pick_community().index
            to = self._new_eoa(funded=False, timestamp=ts, community=comm)
        else:
            to = self._pick_eoa(community)
            if to == sender and len(self.eoas) > 1:
                to = self._pick_eoa(community)
        value = self.rng.randint(1, 10**6)
        return self._base_tx(sender, to, "transfer", pending, value=value)

    def _tx_token(self, ts: float, pending: Dict[Address, int]) -> Transaction:
        sender = self._pick_sender(ts)
        community = self._community_for_tx(sender)
        token = self._pick_hub("token", community)
        recipient = self._pick_eoa(community)
        amount = self.rng.randint(1, 10**6)
        return self._base_tx(
            sender, token, "token", pending, value=0, data=(recipient, amount)
        )

    def _tx_exchange(self, ts: float, pending: Dict[Address, int]) -> Transaction:
        sender = self._pick_sender(ts)
        community = self._community_for_tx(sender)
        exchange = self._pick_hub("exchange", community)
        payout = self._pick_eoa(community)
        value = self.rng.randint(2, 10**6)
        return self._base_tx(
            sender, exchange, "exchange", pending, value=value, data=(payout,)
        )

    def _tx_mixer(self, ts: float, pending: Dict[Address, int]) -> Transaction:
        sender = self._pick_sender(ts)
        community = self._community_for_tx(sender)
        mixer = self._pick_hub("mixer", community)
        outs = tuple(self._pick_eoa(community) for _ in range(3))
        value = self.rng.randint(4, 10**6)
        return self._base_tx(sender, mixer, "mixer", pending, value=value, data=outs)

    def _tx_wallet(self, ts: float, pending: Dict[Address, int]) -> Transaction:
        sender = self._pick_sender(ts)
        community = self._community_for_tx(sender)
        wallet = self._pick_hub("wallet", community)
        value = self.rng.randint(1, 10**6)
        return self._base_tx(sender, wallet, "wallet", pending, value=value)

    def _tx_deploy(self, ts: float, pending: Dict[Address, int]) -> Transaction:
        """Deploy a new hub contract and activate it with a transaction.

        The contract object is created directly in the state (standing
        in for init-code execution); the returned transaction is the
        deployer's activation call, which materialises the deployer →
        contract edge in the graph.  A small fraction goes through the
        factory-CREATE path to exercise contract-creates-contract.
        """
        sender = self._pick_sender(ts)
        comm = self.community_of[sender]
        roll = self.rng.random()
        if roll < 0.45:
            addr = self._deploy_hub("token", ts, comm)
            return self._base_tx(
                sender, addr, "activate", pending, value=0, data=(sender, 0)
            )
        if roll < 0.65:
            addr = self._deploy_hub("exchange", ts, comm)
            return self._base_tx(
                sender, addr, "activate", pending, value=2, data=(sender,)
            )
        if roll < 0.78:
            addr = self._deploy_hub("mixer", ts, comm)
            return self._base_tx(
                sender, addr, "activate", pending, value=4,
                data=(sender, sender, sender),
            )
        if roll < 0.94:
            owner = self._pick_eoa(self.communities[comm])
            addr = self._deploy_hub("wallet", ts, comm, initial_storage={0: owner})
            return self._base_tx(sender, addr, "activate", pending, value=2)
        # factory path: deploy via CREATE inside the EVM
        acct = self.state.create_contract(programs.factory_code(), timestamp=ts)
        self.state.discard_journal()
        self.community_of[acct.address] = comm
        return self._base_tx(
            sender, acct.address, "deploy", pending, value=0,
            data=(self._tmpl_dummy,),
        )

    def _tx_spam(self, ts: float, pending: Dict[Address, int]) -> Transaction:
        """One attack transaction touching ``spam_fanout`` fresh accounts."""
        sender = self.rng.choice(self.spammers_senders)
        spammer = self.rng.choice(self.spammers)
        targets = tuple(
            self._new_throwaway(ts) for _ in range(self.config.spam_fanout)
        )
        return self._base_tx(sender, spammer, "spam", pending, value=0, data=targets)

    def _new_throwaway(self, ts: float) -> Address:
        """A dummy account that will never act again (attack bloat).

        Deliberately NOT added to any community or registry: throwaways
        never transact again, exactly like the dummy accounts the paper
        blames for METIS's post-attack imbalance.
        """
        acct = self.state.create_eoa(balance=0, timestamp=ts)
        self.state.discard_journal()
        return acct.address

    # ------------------------------------------------------------------
    # intensity profile

    def _step_weights(self, step_mids: Sequence[float]) -> List[float]:
        """Relative transaction intensity at each step midpoint.

        Exponential to the attack, burst inside the window, superlinear
        (power-law in time) afterwards — the Fig. 1 shape.
        """
        cfg = self.config
        span_pre = max(ATTACK_START - cfg.start_ts, 1.0)
        growth_k = math.log(cfg.preattack_growth_ratio)
        span_post = max(cfg.end_ts - ATTACK_END, 1.0)
        boom_c = cfg.postattack_final_ratio ** (1.0 / cfg.postattack_power) - 1.0

        weights: List[float] = []
        for ts in step_mids:
            if ts < ATTACK_START:
                w = math.exp(growth_k * (ts - cfg.start_ts) / span_pre)
            elif ts < ATTACK_END:
                w = cfg.preattack_growth_ratio * cfg.attack_multiplier
            else:
                tau = (ts - ATTACK_END) / span_post
                w = cfg.preattack_growth_ratio * (1.0 + boom_c * tau) ** cfg.postattack_power
            weights.append(w)
        return weights

    # ------------------------------------------------------------------
    # main loop

    def run(self, progress: Optional[Callable[[int, int], None]] = None) -> WorkloadResult:
        """Generate the whole history; returns builder + chain."""
        cfg = self.config
        ts = cfg.start_ts

        # bootstrap population (genesis-time actors)
        for _ in range(cfg.bootstrap_eoas):
            self._new_eoa(funded=True, timestamp=ts)
        for _ in range(cfg.bootstrap_tokens):
            self._deploy_hub("token", ts, 0)
        for _ in range(cfg.bootstrap_exchanges):
            self._deploy_hub("exchange", ts, 0)
        self._deploy_hub("mixer", ts, 0)
        owner = self.rng.choice(self.eoas)
        self._deploy_hub("wallet", ts, 0, initial_storage={0: owner})
        # attack infrastructure (dormant until the window)
        self.spammers_senders = [
            self._new_eoa(funded=True, timestamp=ts) for _ in range(3)
        ]
        for _ in range(2):
            acct = self.state.create_contract(
                programs.spammer_code(cfg.spam_fanout), timestamp=ts
            )
            self.state.discard_journal()
            self.spammers.append(acct.address)
            self.community_of[acct.address] = 0

        step = cfg.step_hours * HOUR
        step_starts: List[float] = []
        t = cfg.start_ts
        while t < cfg.end_ts:
            step_starts.append(t)
            t += step
        mids = [s + step / 2 for s in step_starts]
        weights = self._step_weights(mids)
        total_w = sum(weights)

        carried = 0.0
        executed = 0
        mixture = cfg.mixture()
        mix_kinds = list(mixture)
        mix_weights = [mixture[k] for k in mix_kinds]

        for i, start in enumerate(step_starts):
            self._ensure_communities(start)
            quota = cfg.total_transactions * weights[i] / total_w + carried
            n = int(quota)
            carried = quota - n
            if n == 0:
                continue
            block_ts = start
            in_attack = ATTACK_START <= mids[i] < ATTACK_END
            txs: List[Transaction] = []
            pending: Dict[Address, int] = {}
            for _ in range(n):
                if in_attack and self.rng.random() < cfg.attack_spam_fraction:
                    txs.append(self._tx_spam(block_ts, pending))
                    continue
                kind = self.rng.choices(mix_kinds, weights=mix_weights, k=1)[0]
                tx_builder = getattr(self, f"_tx_{kind}")
                txs.append(tx_builder(block_ts, pending))
            gas_limit = sum(tx.gas_limit for tx in txs) + 1_000
            self.chain.add_block(txs, block_ts, self.miner, gas_limit=gas_limit)
            executed += n
            if progress is not None:
                progress(executed, cfg.total_transactions)

        return WorkloadResult(config=cfg, builder=self.builder, chain=self.chain)


def generate_history(config: Optional[WorkloadConfig] = None) -> WorkloadResult:
    """Generate a synthetic Ethereum history with the given config."""
    return WorkloadGenerator(config or WorkloadConfig()).run()
