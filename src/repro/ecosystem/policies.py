"""Privacy-policy text generation.

Produces the policy landscape the paper found: mostly *absent*; when present,
*partial* (describing only some of Collect/Use/Retain/Disclose) and usually
*generic* — boilerplate reused verbatim across developers, never naming the
chatbot-ecosystem data types it actually touches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Sentence templates per data-practice category.  Each template contains at
#: least one keyword from the corresponding family in
#: :mod:`repro.traceability.keywords`, so generated policies are detectable
#: exactly when they genuinely describe the practice.
_CATEGORY_SENTENCES: dict[str, tuple[str, ...]] = {
    "collect": (
        "We collect information you submit when interacting with {name}.",
        "{name} may gather diagnostic data automatically.",
        "Certain interaction details are recorded automatically.",
    ),
    "use": (
        "We use the data to improve our service.",
        "Information is processed to personalize your experience.",
        "{name} analyzes interactions to operate its commands.",
    ),
    "retain": (
        "We retain data only as long as necessary to run {name}.",
        "Some settings are stored in our database for convenience.",
        "Activity details are kept for a limited retention period.",
    ),
    "disclose": (
        "We do not sell your data; we may share it with service providers.",
        "Information may be disclosed when required by law.",
        "{name} may transfer aggregate statistics to third parties.",
    ),
}

#: Ecosystem-specific clauses used only by *tailored* policies.
_TAILORED_SENTENCES: dict[str, tuple[str, ...]] = {
    "collect": (
        "{name} collects message content and message metadata from channels it is present in.",
        "We gather your user id, username and guild (server id) when you run commands.",
    ),
    "use": (
        "Message content is processed only to provide command functionality.",
        "We use command usage statistics per channel to rank features.",
    ),
    "retain": (
        "Role and channel configuration is stored per guild.",
        "We store your user id and email address until you leave the server.",
    ),
    "disclose": (
        "We never share message content or voice metadata with third parties.",
        "Aggregated command usage may be shared with our partner dashboards.",
    ),
}

#: Filler sentences are carefully keyword-free so generated policies stay
#: faithful to their ground-truth category set.
_NEUTRAL_FILLER = (
    "This privacy policy explains our practices.",
    "By adding the bot to your server you accept this policy.",
    "Contact the developer with any questions.",
    "This policy may change at any time without notice.",
    "Thank you for reading.",
)

#: The verbatim boilerplate observed being reused across developers.
GENERIC_POLICY_VARIANTS: tuple[tuple[frozenset[str], str], ...] = (
    (
        frozenset({"collect", "use"}),
        "PRIVACY POLICY\n\n"
        "This application collects basic information required for operation. "
        "We use this information to provide our services. "
        "By using the application you consent to this policy. "
        "This policy may change at any time without notice.",
    ),
    (
        frozenset({"collect"}),
        "Privacy Policy\n\n"
        "We may collect some data while you interact with the application. "
        "Contact the developer for questions. "
        "This document is provided for informational purposes.",
    ),
    (
        frozenset({"use", "retain"}),
        "Privacy\n\n"
        "Data is processed to operate the service and some preferences are stored "
        "for convenience. This document may be updated at the developer's discretion.",
    ),
)


#: Sentences describing each practice with synonyms the keyword families do
#: NOT list — the word-form blind spot the paper's Section 5 concedes.
#: Policies built from these are invisible to the keyword analyzer while a
#: learned classifier (trained on labelled examples) can still catch them.
UNLISTED_SYNONYM_SENTENCES: dict[str, tuple[str, ...]] = {
    "collect": (
        "We amass interaction traces while you chat with {name}.",
        "Telemetry is accumulated from your sessions.",
    ),
    "use": (
        "Data is leveraged to power new features.",
        "Insights are derived from your activity.",
    ),
    "retain": (
        "Information is warehoused on our infrastructure.",
        "Your settings are held on file indefinitely.",
    ),
    "disclose": (
        "Information may be handed over to outside vendors.",
        "Aggregate figures are passed along to advertisers.",
    ),
}


@dataclass(frozen=True)
class PolicySpec:
    """Ground truth for one bot's privacy policy.

    ``categories`` is the set of data practices the policy genuinely
    describes — what a perfect (manual) reviewer would find, and therefore
    the label the keyword analyzer is validated against.
    """

    present: bool
    categories: frozenset[str] = frozenset()
    generic: bool = True
    tailored: bool = False
    link_valid: bool = True
    #: When True, the policy describes its practices using synonyms outside
    #: the keyword families (keyword-invisible but human/ML-readable).
    unlisted_synonyms: bool = False

    @property
    def expected_class(self) -> str:
        """complete / partial / broken under the paper's definitions."""
        if not self.present or not self.link_valid or not self.categories:
            return "broken"
        if self.categories == frozenset({"collect", "use", "retain", "disclose"}):
            return "complete"
        return "partial"


def render_policy(spec: PolicySpec, bot_name: str, rng: random.Random) -> str:
    """Render policy text whose detectable practices equal ``spec.categories``."""
    if not spec.present:
        return ""
    if spec.unlisted_synonyms:
        bank = UNLISTED_SYNONYM_SENTENCES
    elif spec.generic:
        candidates = [text for cats, text in GENERIC_POLICY_VARIANTS if cats == spec.categories]
        if candidates:
            return candidates[0]
        bank = _CATEGORY_SENTENCES  # no canned variant: assemble instead
    else:
        bank = _TAILORED_SENTENCES if spec.tailored else _CATEGORY_SENTENCES
    sentences: list[str] = [f"{bot_name} Privacy Policy", ""]
    for category in sorted(spec.categories):
        template = rng.choice(bank[category])
        sentences.append(template.format(name=bot_name))
    filler_count = rng.randint(1, 3)
    sentences.extend(rng.sample(_NEUTRAL_FILLER, filler_count))
    return "\n".join(sentences)


def sample_policy_spec(
    rng: random.Random,
    present: bool,
    link_valid: bool,
    complete_fraction: float,
    categories_mentioned_weights: dict[int, float],
    generic_reuse_fraction: float,
) -> PolicySpec:
    """Sample a policy spec per the calibrated traceability targets."""
    if not present:
        return PolicySpec(present=False, link_valid=False)
    if rng.random() < complete_fraction:
        categories = frozenset({"collect", "use", "retain", "disclose"})
        return PolicySpec(present=True, categories=categories, generic=False, tailored=True, link_valid=link_valid)
    sizes = sorted(categories_mentioned_weights)
    weights = [categories_mentioned_weights[size] for size in sizes]
    size = rng.choices(sizes, weights=weights, k=1)[0]
    categories = frozenset(rng.sample(["collect", "use", "retain", "disclose"], size))
    generic = rng.random() < generic_reuse_fraction
    tailored = not generic and rng.random() < 0.3
    return PolicySpec(present=True, categories=categories, generic=generic, tailored=tailored, link_valid=link_valid)
