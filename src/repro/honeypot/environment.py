"""Per-bot isolated honeypot environments.

"We test each chatbot in an independent and isolated messaging environment
... we create new private guilds, add a chatbot to the guild using the
chatbot invite link and post messages using automation.  We name each guild
after the corresponding chatbots for easy identification."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.discordsim.guild import Guild
from repro.discordsim.models import Message, User
from repro.discordsim.platform import DiscordPlatform
from repro.ecosystem.generator import BotProfile
from repro.honeypot.console import CanaryConsole
from repro.honeypot.feed import post_feed
from repro.honeypot.personas import PersonaSet, create_personas, join_guild_with_verification
from repro.honeypot.tokens import CanaryToken, TokenFactory, TokenKind
from repro.web.captcha import TwoCaptchaClient

#: The paper's campaign: 5 virtual users in every honeypot guild, and a
#: 25-message feed posted before the canary tokens.
PERSONAS_PER_GUILD = 5
FEED_MESSAGES = 25


@dataclass
class GuildEnvironment:
    """One provisioned honeypot guild, armed and seeded."""

    guild: Guild
    owner: User
    personas: PersonaSet
    tokens: list[CanaryToken] = field(default_factory=list)
    feed_messages: list[Message] = field(default_factory=list)
    token_messages: list[Message] = field(default_factory=list)

    @property
    def context(self) -> str:
        return self.guild.name


def provision_environment(
    platform: DiscordPlatform,
    bot: BotProfile,
    console: CanaryConsole,
    factory: TokenFactory,
    solver: TwoCaptchaClient,
    rng: random.Random,
    personas_per_guild: int = PERSONAS_PER_GUILD,
    feed_messages: int = FEED_MESSAGES,
    token_kinds: tuple[TokenKind, ...] = (TokenKind.URL, TokenKind.EMAIL, TokenKind.WORD, TokenKind.PDF),
    on_installed: "Callable[[GuildEnvironment], None] | None" = None,
    personas: PersonaSet | None = None,
    message_source: "Callable[[], str] | None" = None,
) -> GuildEnvironment:
    """Create the guild, install the bot, post the feed and arm the tokens.

    Installation solves the platform's reCAPTCHA through the 2Captcha
    client, as the paper's automation does.  ``on_installed`` fires right
    after the bot joins and *before* any content is posted — this is where
    the experiment connects the bot's runtime so it observes the guild the
    way a live bot would.
    """
    owner = platform.create_user(f"owner-{bot.name.lower()}"[:28], phone_verified=True)
    guild = platform.create_guild(owner, bot.name, private=True)
    if personas is None:
        personas = create_personas(platform, personas_per_guild, rng)
    join_guild_with_verification(platform, personas, guild)

    # Install the bot under test via its OAuth link + captcha.
    screen = platform.begin_install(owner.user_id, bot.invite_url, guild.guild_id)
    answer = solver.solve_with_retries(screen.captcha_prompt or "")
    platform.complete_install(
        owner.user_id,
        guild.guild_id,
        bot.invite_url,
        screen.captcha_challenge_id or "",
        answer,
    )
    if on_installed is not None:
        on_installed(GuildEnvironment(guild=guild, owner=owner, personas=personas))

    channel = guild.text_channels()[0]
    environment = GuildEnvironment(guild=guild, owner=owner, personas=personas)

    # Seed the conversational feed first so the guild looks active.
    environment.feed_messages = post_feed(
        platform, guild, channel.channel_id, personas, feed_messages, rng,
        message_source=message_source,
    )

    # Arm and post the canary tokens, attributed to this guild by name.
    for kind in token_kinds:
        token = factory.mint(kind, context=guild.name)
        console.deploy(token)
        environment.tokens.append(token)
        poster = rng.choice(personas.users)
        if kind is TokenKind.URL:
            message = platform.post_message(
                poster.user_id, guild.guild_id, channel.channel_id, factory.url_message(token)
            )
        elif kind is TokenKind.EMAIL:
            message = platform.post_message(
                poster.user_id, guild.guild_id, channel.channel_id, factory.email_message(token)
            )
        elif kind is TokenKind.WORD:
            attachment = factory.word_attachment(token, platform.snowflakes.next_id())
            message = platform.post_message(
                poster.user_id, guild.guild_id, channel.channel_id, "notes from the call", [attachment]
            )
        else:
            attachment = factory.pdf_attachment(token, platform.snowflakes.next_id())
            message = platform.post_message(
                poster.user_id, guild.guild_id, channel.channel_id, "invoice attached", [attachment]
            )
        environment.token_messages.append(message)
    return environment
