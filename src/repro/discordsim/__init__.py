"""A Discord-like messaging platform simulator.

Reproduces the parts of Discord the paper's measurement depends on:

- the guild / channel / role model with the full permission bitfield
  (:mod:`repro.discordsim.permissions`);
- the permission hierarchy rules i–v from Section 4.1
  (:mod:`repro.discordsim.guild`);
- the OAuth2 install flow with its consent screen — Figure 2 —
  (:mod:`repro.discordsim.oauth`);
- gateway events and a ``discord.py``-style bot runtime
  (:mod:`repro.discordsim.gateway`, :mod:`repro.discordsim.bot`);
- a REST-style API that enforces the *bot's* permissions but — crucially,
  and unlike Slack or MS Teams — performs **no user-permission checks** on
  command invocations, leaving those to third-party developers
  (:mod:`repro.discordsim.api`).
"""

from repro.discordsim.permissions import (
    ALL_PERMISSIONS,
    DISPLAY_NAMES,
    Permission,
    PermissionOverwrite,
    Permissions,
)
from repro.discordsim.snowflake import SnowflakeGenerator
from repro.discordsim.models import Attachment, ChannelType, Member, Message, Role, User
from repro.discordsim.guild import Guild, HierarchyError, PermissionDenied
from repro.discordsim.gateway import Event, EventBus, EventType
from repro.discordsim.oauth import InviteLink, OAuthScope, build_invite_url, parse_invite_url
from repro.discordsim.platform import DiscordPlatform, InstallError, VerificationRequired
from repro.discordsim.api import BotApiClient, ApiError
from repro.discordsim.bot import BotRuntime, CommandContext, requires_user_permissions
from repro.discordsim.slash import Interaction, SlashCommand, SlashCommandRegistry

__all__ = [
    "ALL_PERMISSIONS",
    "ApiError",
    "Attachment",
    "BotApiClient",
    "BotRuntime",
    "ChannelType",
    "Interaction",
    "SlashCommand",
    "SlashCommandRegistry",
    "CommandContext",
    "DISPLAY_NAMES",
    "DiscordPlatform",
    "Event",
    "EventBus",
    "EventType",
    "Guild",
    "HierarchyError",
    "InstallError",
    "InviteLink",
    "Member",
    "Message",
    "OAuthScope",
    "Permission",
    "PermissionDenied",
    "PermissionOverwrite",
    "Permissions",
    "Role",
    "SnowflakeGenerator",
    "User",
    "VerificationRequired",
    "build_invite_url",
    "parse_invite_url",
]
