"""Deterministic name generation for bots, developers and tags."""

from __future__ import annotations

import random

BOT_ADJECTIVES = (
    "Mega", "Hyper", "Turbo", "Pixel", "Nova", "Astro", "Cosmic", "Shadow",
    "Crystal", "Iron", "Neon", "Quantum", "Rapid", "Silent", "Solar", "Lunar",
    "Vivid", "Zen", "Echo", "Frost", "Ember", "Storm", "Drift", "Prime",
    "Omega", "Alpha", "Cyber", "Retro", "Velvet", "Golden",
)

BOT_NOUNS = (
    "Moderator", "Helper", "Guardian", "Jukebox", "Quizzer", "Greeter",
    "Ranker", "Logger", "Notifier", "Translator", "Counter", "Paladin",
    "Scribe", "Herald", "Butler", "Warden", "Oracle", "Courier", "Sentry",
    "Maestro", "Curator", "Pilot", "Companion", "Wizard", "Scout", "Keeper",
    "Dealer", "Critic", "Chef", "Barista",
)

# Suffixes are deliberately digit-free: generated names end with the bot's
# rank, and trailing digits must decode back to it unambiguously.
BOT_SUFFIXES = ("", "", "", "Bot", "Bot", "X", "Go", "Pro", "Lite", "HQ")

DEVELOPER_NAMES = (
    "aiden", "bella", "carlos", "daria", "elliot", "fatima", "george",
    "hana", "ivan", "jules", "kaito", "lena", "marco", "nadia", "oscar",
    "priya", "quinn", "rosa", "sam", "tara", "umar", "vera", "wes", "xena",
    "yuki", "zane", "editid", "pixeldev", "codewolf", "nightowl",
)

TAGS = (
    "moderation", "music", "fun", "gaming", "social", "meme", "utility",
    "economy", "leveling", "anime", "roleplay", "logging", "welcome",
    "polls", "translation", "nsfw-filter", "giveaways", "stats",
)

THIRD_PARTY_PLATFORMS = ("botghost.com", "autocode.com", "discordbotstudio.org")

#: The bot the paper caught red-handed; planted verbatim for fidelity.
MELONIAN = "Melonian"


def bot_name(rng: random.Random, taken: set[str]) -> str:
    """Generate a unique bot name.

    A handful of random attempts, then a counter suffix: the combinatorial
    space (~9k) is smaller than the full population (~21k), so unbounded
    rejection sampling would thrash once the space saturates.
    """
    for _ in range(8):
        name = rng.choice(BOT_ADJECTIVES) + rng.choice(BOT_NOUNS) + rng.choice(BOT_SUFFIXES)
        if name not in taken:
            taken.add(name)
            return name
    name = f"{rng.choice(BOT_ADJECTIVES)}{rng.choice(BOT_NOUNS)}{len(taken)}"
    taken.add(name)
    return name


def developer_tag(rng: random.Random, taken: set[str]) -> str:
    """Generate a unique ``name#discriminator`` developer tag."""
    for _ in range(8):
        tag = f"{rng.choice(DEVELOPER_NAMES)}#{rng.randint(1000, 9999)}"
        if tag not in taken:
            taken.add(tag)
            return tag
    tag = f"{rng.choice(DEVELOPER_NAMES)}{len(taken)}#{rng.randint(1000, 9999)}"
    taken.add(tag)
    return tag


def bot_tags(rng: random.Random) -> list[str]:
    count = rng.randint(1, 4)
    return rng.sample(TAGS, count)


#: Listing descriptions; :func:`bot_description` draws one, then formats it.
DESCRIPTION_TEMPLATES = (
    "{name} is the ultimate {purpose} bot for your server!",
    "Bring {purpose} to your community with {name}.",
    "{name} — {purpose}, leveling, and more. Trusted by thousands of servers.",
    "A powerful {purpose} bot. Easy setup, 24/7 uptime.",
    "{name} makes {purpose} effortless. Invite now!",
)


def bot_description(rng: random.Random, name: str, tags: list[str]) -> str:
    purpose = tags[0] if tags else "utility"
    return rng.choice(DESCRIPTION_TEMPLATES).format(name=name, purpose=purpose)
